//! The benchmark's own inputs and truth: a deterministic clustered point
//! generator, query-window pools, 3-D records for the engine workload, and
//! a brute-force oracle.
//!
//! Nothing here calls into the program under test or into `storm-workload`:
//! a change to either cannot move the yardstick. The generator's random
//! numbers come from the SplitMix64 below, not from the vendored `rand`
//! shim, for the same reason.

/// SplitMix64: the benchmark's only source of randomness for inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Standard normal (Box–Muller, one of the pair).
    pub fn normal(&mut self) -> f64 {
        let u = self.unit().max(f64::MIN_POSITIVE);
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// Every coordinate lies in `[LO, HI]` on both axes. Keeping the extent
/// away from zero makes the relative error of AVG(x) well-conditioned
/// (|mean| ≈ 1500 against a within-window spread of tens).
pub const LO: f64 = 1000.0;
pub const HI: f64 = 2000.0;

const CLUSTERS: usize = 64;
/// Share of points drawn uniformly over the extent instead of from a
/// cluster, so that no window is empty of background.
const BACKGROUND: f64 = 0.10;

/// An axis-aligned query window `[x0, x1] × [y0, y1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    pub x0: f64,
    pub y0: f64,
    pub x1: f64,
    pub y1: f64,
}

impl Window {
    pub fn contains(&self, x: f64, y: f64) -> bool {
        x >= self.x0 && x <= self.x1 && y >= self.y0 && y <= self.y1
    }

    pub const FULL: Window = Window {
        x0: LO,
        y0: LO,
        x1: HI,
        y1: HI,
    };
}

/// `n` clustered points in `[LO, HI]²`: Gaussian clusters of mixed width
/// over a uniform background. Point `i` has id `i`.
///
/// The cluster map (centres and widths) is the same for every seed; the
/// seed decides which points are drawn from it. Two seeds therefore give
/// different data of the same shape, and a metric's spread across seeds
/// measures the system, not how lucky a seed's map was.
pub fn points(n: usize, seed: u64) -> Vec<[f64; 2]> {
    let span = HI - LO;
    let mut map = SplitMix::new(0x0000_C105_7E25);
    let centers: Vec<([f64; 2], f64)> = (0..CLUSTERS)
        .map(|_| {
            let c = [
                LO + span * (0.1 + 0.8 * map.unit()),
                LO + span * (0.1 + 0.8 * map.unit()),
            ];
            (c, span * (0.01 + 0.05 * map.unit()))
        })
        .collect();
    let mut rng = SplitMix::new(seed ^ 0x5707_4D00);
    (0..n)
        .map(|_| {
            if rng.unit() < BACKGROUND {
                [LO + span * rng.unit(), LO + span * rng.unit()]
            } else {
                let (c, sigma) = centers[rng.below(CLUSTERS)];
                [
                    (c[0] + sigma * rng.normal()).clamp(LO, HI),
                    (c[1] + sigma * rng.normal()).clamp(LO, HI),
                ]
            }
        })
        .collect()
}

/// A pool of `side_count²` windows whose side is `frac` of the extent per
/// axis, on a lattice over the whole extent, in seeded random order. Like
/// the cluster map, the lattice is the same for every seed, so every seed
/// sees the same mix of dense and sparse windows; the order they are asked
/// in, and the points inside them, follow the seed.
pub fn windows(side_count: usize, frac: f64, seed: u64) -> Vec<Window> {
    let mut rng = SplitMix::new(seed ^ 0x0057_1ED0);
    let side = (HI - LO) * frac;
    let room = HI - LO - side;
    let mut pool: Vec<Window> = (0..side_count * side_count)
        .map(|i| {
            let at = |cell: usize| LO + room * (cell as f64 + 0.5) / side_count as f64;
            let x0 = at(i % side_count);
            let y0 = at(i / side_count);
            Window {
                x0,
                y0,
                x1: x0 + side,
                y1: y0 + side,
            }
        })
        .collect();
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.below(i + 1));
    }
    pool
}

/// Brute-force truth for one window: how many points it holds and the
/// mean of their x-coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Truth {
    pub count: u64,
    pub avg_x: f64,
}

/// Scans every point against every window (two threads, one half of the
/// points each). Timed by the caller and excluded from `setup_s`.
pub fn oracle(points: &[[f64; 2]], windows: &[Window]) -> Vec<Truth> {
    let scan = |part: &[[f64; 2]]| -> Vec<(u64, f64)> {
        let mut acc = vec![(0u64, 0.0f64); windows.len()];
        for p in part {
            for (w, a) in windows.iter().zip(acc.iter_mut()) {
                if w.contains(p[0], p[1]) {
                    a.0 += 1;
                    a.1 += p[0];
                }
            }
        }
        acc
    };
    let (left, right) = points.split_at(points.len() / 2);
    let (a, b) = std::thread::scope(|s| {
        let h = s.spawn(|| scan(left));
        let b = scan(right);
        (h.join().expect("oracle thread"), b)
    });
    a.iter()
        .zip(&b)
        .map(|(a, b)| {
            let count = a.0 + b.0;
            Truth {
                count,
                avg_x: if count == 0 {
                    f64::NAN
                } else {
                    (a.1 + b.1) / count as f64
                },
            }
        })
        .collect()
}

/// One record of the engine workload: a point in (x, y, t) with a numeric
/// attribute `v` that depends on position (so window means differ) plus
/// noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    pub x: f64,
    pub y: f64,
    pub t: i64,
    pub v: f64,
}

/// Timestamps lie in `[0, T_SPAN)`.
pub const T_SPAN: i64 = 1_000_000;

pub fn records(n: usize, seed: u64) -> Vec<Record> {
    let mut rng = SplitMix::new(seed ^ 0x00E6_1E00);
    points(n, seed ^ 0x3D)
        .into_iter()
        .map(|p| Record {
            x: p[0],
            y: p[1],
            t: rng.below(T_SPAN as usize) as i64,
            v: 50.0 + 0.02 * (p[0] - LO) + 0.01 * (p[1] - LO) + 5.0 * rng.normal(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        assert_eq!(points(1000, 7), points(1000, 7));
        assert_ne!(points(1000, 7), points(1000, 8));
        assert_eq!(records(100, 7), records(100, 7));
    }

    #[test]
    fn points_stay_in_extent_and_windows_tile_it() {
        let pts = points(20_000, 2015);
        assert!(pts.iter().all(|p| p.iter().all(|c| (LO..=HI).contains(c))));
        let ws = windows(4, 0.2, 2015);
        assert_eq!(ws.len(), 16);
        for (w, t) in ws.iter().zip(oracle(&pts, &ws)) {
            assert!(w.x0 >= LO && w.x1 <= HI && w.y0 >= LO && w.y1 <= HI);
            assert!((w.x1 - w.x0 - 200.0).abs() < 1e-9);
            assert!(
                t.count >= 1,
                "a fifth of the extent per axis holds background"
            );
            assert!(t.avg_x >= w.x0 && t.avg_x <= w.x1);
        }
        assert_ne!(ws, windows(4, 0.2, 2016));
    }

    #[test]
    fn oracle_agrees_with_a_direct_count_on_the_full_extent() {
        let pts = points(4001, 3);
        let t = oracle(&pts, &[Window::FULL])[0];
        assert_eq!(t.count, 4001);
        let mean = pts.iter().map(|p| p[0]).sum::<f64>() / 4001.0;
        assert!((t.avg_x - mean).abs() < 1e-9);
    }
}
