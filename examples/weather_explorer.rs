//! The MesoWest-style demo: import weather data through the connector
//! (with schema discovery), then compare four sampling methods on the
//! same spatio-temporal aggregation.
//!
//! ```text
//! cargo run --release --example weather_explorer
//! ```

use storm::connector::{schema::Schema, CsvSource, DataSource, FieldMapping};
use storm::prelude::*;
use storm::workload::weather::{self, WeatherConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Materialise the synthetic station network as a CSV file — the
    //    shape a real MesoWest export would arrive in.
    let cfg = WeatherConfig {
        stations: 2_000,
        readings_per_station: 72,
        ..Default::default()
    };
    let records = weather::generate(&cfg);
    let mut csv = String::from("lon,lat,ts,temp,station\n");
    for r in &records {
        use std::fmt::Write;
        let _ = writeln!(
            csv,
            "{},{},{},{:.2},{}",
            r.point.xy.x(),
            r.point.xy.y(),
            r.point.t,
            r.body.get("temp").unwrap().as_float().unwrap(),
            r.body.get("station").unwrap().as_str().unwrap(),
        );
    }
    println!(
        "synthesised {} readings from {} stations ({} bytes of CSV)",
        records.len(),
        cfg.stations,
        csv.len()
    );

    // 2. Schema discovery over a sample of the rows.
    let mut probe = CsvSource::new(csv.as_bytes());
    let mut sample = Vec::new();
    for _ in 0..200 {
        match probe.next_record() {
            Some(row) => sample.push(row?),
            None => break,
        }
    }
    let schema = Schema::discover(&sample);
    println!(
        "\ndiscovered schema ({} records sampled):",
        schema.records()
    );
    for (name, info) in schema.fields() {
        println!(
            "  {:<8} {:?}  present {}  range [{:?}, {:?}]",
            name, info.ty, info.present, info.min, info.max
        );
    }
    println!(
        "coordinate candidates: {:?}",
        schema.coordinate_candidates()
    );
    println!("timestamp candidates:  {:?}", schema.timestamp_candidates());

    // 3. Import through the connector with an explicit mapping.
    let mut engine = StormEngine::new(9);
    let mapping = FieldMapping::new("lon", "lat", Some("ts"));
    let mut source = CsvSource::new(csv.as_bytes());
    let report = engine.import("mesowest", &mut source, &mapping, DatasetConfig::default())?;
    println!(
        "\nimported {} records ({} skipped) into 'mesowest'",
        report.imported, report.skipped
    );

    // 4. The paper's demo query: average temperature over a spatio-temporal
    //    region — run with every sampling method, 500 samples each.
    let region = "RANGE -115 35 -100 45"; // mountain west
    let window = format!("TIME {} {}", cfg.start_time, cfg.start_time + 48 * 3600);
    println!("\nESTIMATE AVG(temp) {region} {window} — 500 samples per method:");
    println!(
        "{:>12} {:>10} {:>10} {:>12} {:>10}",
        "method", "estimate", "±95% CI", "sim-reads", "ms"
    );
    for method in ["queryfirst", "samplefirst", "randompath", "rstree"] {
        let outcome = engine.execute(&format!(
            "ESTIMATE AVG(temp) FROM mesowest {region} {window} SAMPLES 500 METHOD {method}"
        ))?;
        let est = outcome.estimate().expect("aggregate");
        println!(
            "{:>12} {:>10.3} {:>10.3} {:>12} {:>10.2}",
            method,
            est.value,
            est.half_width(0.95),
            outcome.io_reads,
            outcome.elapsed.as_secs_f64() * 1e3
        );
    }

    // 5. And what the optimizer would have picked on its own:
    let outcome = engine.execute(&format!(
        "ESTIMATE AVG(temp) FROM mesowest {region} {window} SAMPLES 500"
    ))?;
    println!("optimizer's own choice: {}", outcome.sampler);

    // 6. Updates: fresh readings arrive; a query over the latest window
    //    sees them immediately (paper §4.2 'updates').
    let now = cfg.start_time + 100 * 3600;
    for j in 0..500 {
        engine.insert(
            "mesowest",
            StRecord {
                point: StPoint::new(-111.9 + (j as f64) * 1e-4, 40.76, now + j),
                body: storm::store::Value::object([
                    ("temp".into(), storm::store::Value::Float(35.0)),
                    ("station".into(), storm::store::Value::from("st_new")),
                ]),
            },
        )?;
    }
    let outcome = engine.execute(&format!(
        "ESTIMATE AVG(temp) FROM mesowest RANGE -112 40 -111 41 TIME {} {}",
        now,
        now + 1000
    ))?;
    let est = outcome.estimate().expect("aggregate");
    println!(
        "\nafter inserting 500 fresh readings: AVG over the newest window = {:.2} (exact: 35.00)",
        est.value
    );
    Ok(())
}
