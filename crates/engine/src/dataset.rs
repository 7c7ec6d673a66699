//! Data sets: storage + ST-indexing for one imported source.

use std::collections::HashMap;
use std::sync::Arc;

use storm_connector::StRecord;
use storm_core::FrozenRsTree;
use storm_geo::{Point2, Rect2, StPoint};
use storm_query::DatasetStats;
use storm_rtree::{BulkMethod, Item, RTree, RTreeConfig};
use storm_store::{Collection, DocId};

use crate::EngineError;

/// Per-data-set configuration.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// R-tree fanout / block size `B`.
    pub fanout: usize,
    /// The record field holding short text (for `TERMS`).
    pub text_field: Option<String>,
    /// The record field identifying the user/entity (for `TRAJECTORY`).
    pub user_field: Option<String>,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            fanout: 64,
            text_field: Some("text".into()),
            user_field: Some("user".into()),
        }
    }
}

/// One imported data set: the document collection, the raw scan file, and
/// the spatio-temporal index with its frozen snapshot.
#[derive(Debug)]
pub struct Dataset {
    name: String,
    pub(crate) collection: Collection,
    /// The flat "scan file": every live item, for SampleFirst probes.
    pub(crate) items: Vec<Item<3>>,
    /// id → position in `items` (for O(1) delete).
    item_pos: HashMap<u64, usize>,
    /// The one mutable index: a Hilbert R-tree with subtree counts, kept in
    /// step with the scan file by every update. QueryFirst and RandomPath
    /// walk it; the RS-tree plans sample its frozen snapshot.
    pub(crate) tree: RTree<3>,
    /// Read-optimized snapshot of `tree` serving RS-tree sampling plans;
    /// invalidated by updates and rebuilt on the next query.
    pub(crate) frozen: Option<Arc<FrozenRsTree<3>>>,
    pub(crate) cfg: DatasetConfig,
    /// Cached 2-D extent (grow-only; queries use it for defaults).
    bounds2: Option<Rect2>,
    /// Mutation counter driving the sampled debug audit cadence.
    #[cfg(debug_assertions)]
    audit_ops: u64,
}

impl Dataset {
    /// Builds a data set from mapped records; refuses the lot if any
    /// record's location is not finite.
    pub fn build(
        name: impl Into<String>,
        records: Vec<StRecord>,
        cfg: DatasetConfig,
    ) -> Result<Self, EngineError> {
        let name = name.into();
        let mut collection = Collection::with_block_size(&name, cfg.fanout);
        let mut items = Vec::with_capacity(records.len());
        let mut item_pos = HashMap::with_capacity(records.len());
        let mut bounds2 = None;
        for record in records {
            check_point(&record.point)?;
            let id = collection.insert(record.body);
            item_pos.insert(id.0, items.len());
            items.push(Item::new(record.point.to_point3(), id.0));
            bounds2 = Some(grown(bounds2, record.point.xy));
        }
        let tree = RTree::bulk_load(
            items.clone(),
            RTreeConfig::with_fanout(cfg.fanout),
            BulkMethod::Hilbert,
        );
        let frozen = Some(Arc::new(FrozenRsTree::new(tree.freeze())));
        Ok(Dataset {
            name,
            collection,
            items,
            item_pos,
            tree,
            frozen,
            cfg,
            bounds2,
            #[cfg(debug_assertions)]
            audit_ops: 0,
        })
    }

    /// The data set name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The configuration this data set was built with.
    pub fn config(&self) -> &DatasetConfig {
        &self.cfg
    }

    /// The 2-D spatial extent (grow-only under updates).
    pub fn bounds2(&self) -> Rect2 {
        self.bounds2
            .unwrap_or_else(|| Rect2::from_point(Point2::xy(0.0, 0.0)))
    }

    /// Statistics for the optimizer.
    pub fn stats(&self) -> DatasetStats {
        DatasetStats {
            n: self.items.len(),
            bounds: self.bounds2(),
            height: self.tree.height(),
            block: self.cfg.fanout,
        }
    }

    /// The spatio-temporal index.
    pub fn tree(&self) -> &RTree<3> {
        &self.tree
    }

    /// The frozen RS-tree snapshot, rebuilding it if an update
    /// invalidated it since the last query.
    pub fn ensure_frozen(&mut self) -> Arc<FrozenRsTree<3>> {
        if let Some(frozen) = &self.frozen {
            return Arc::clone(frozen);
        }
        let frozen = Arc::new(FrozenRsTree::new(self.tree.freeze()));
        self.frozen = Some(Arc::clone(&frozen));
        frozen
    }

    /// The frozen snapshot if it is current (no rebuild).
    pub fn frozen(&self) -> Option<&Arc<FrozenRsTree<3>>> {
        self.frozen.as_ref()
    }

    /// The raw item array (the SampleFirst scan file).
    pub fn items(&self) -> &[Item<3>] {
        &self.items
    }

    /// The document collection.
    pub fn collection(&self) -> &Collection {
        &self.collection
    }

    /// Installs a fault-injection hook on this data set's storage read
    /// path (chaos/test runs). Queries keep running; failed block reads
    /// surface as `io_faults` in their outcomes.
    pub fn set_fault_hook(&mut self, hook: std::sync::Arc<dyn storm_faultkit::FaultHook>) {
        self.collection.set_fault_hook(hook);
    }

    /// Removes the storage fault hook, restoring clean reads.
    pub fn clear_fault_hook(&mut self) {
        self.collection.clear_fault_hook();
    }

    /// Looks up a numeric attribute of a sampled record (one block read).
    pub fn number(&self, id: u64, field: &str) -> Option<f64> {
        self.collection.get(DocId(id))?.number(field)
    }

    /// Looks up a text attribute of a sampled record (one block read).
    pub fn text(&self, id: u64, field: &str) -> Option<String> {
        Some(self.collection.get(DocId(id))?.text(field)?.to_owned())
    }

    /// Inserts one record through the update manager: storage, scan file
    /// and index stay in sync (paper §4.2 "updates"). A record whose
    /// location is not finite is refused and nothing changes.
    pub fn insert(&mut self, record: StRecord) -> Result<DocId, EngineError> {
        check_point(&record.point)?;
        let id = self.collection.insert(record.body);
        let item = Item::new(record.point.to_point3(), id.0);
        self.item_pos.insert(id.0, self.items.len());
        self.items.push(item);
        self.bounds2 = Some(grown(self.bounds2, record.point.xy));
        self.tree.insert(item);
        self.frozen = None;
        self.debug_audit();
        Ok(id)
    }

    /// Removes one record everywhere. Returns `false` for unknown ids.
    pub fn remove(&mut self, id: DocId) -> bool {
        let Some(pos) = self.item_pos.remove(&id.0) else {
            return false;
        };
        let item = self.items.swap_remove(pos);
        if let Some(moved) = self.items.get(pos) {
            self.item_pos.insert(moved.id, pos);
        }
        self.collection.remove(id);
        let removed = self.tree.remove(&item.point, item.id);
        self.frozen = None;
        debug_assert!(removed, "index out of sync with scan file");
        self.debug_audit();
        true
    }

    /// Debug-build audit: re-validates the index after a mutation, on the
    /// cadence of storm-core's structure audits (see
    /// [`storm_core::validate`]). Release builds compile this to nothing.
    #[inline]
    fn debug_audit(&mut self) {
        #[cfg(debug_assertions)]
        {
            use storm_core::validate::{AUDIT_EVERY_OP_LIMIT, AUDIT_SAMPLE_PERIOD};
            self.audit_ops += 1;
            if self.items.len() <= AUDIT_EVERY_OP_LIMIT
                || self.audit_ops.is_multiple_of(AUDIT_SAMPLE_PERIOD)
            {
                debug_assert_eq!(
                    storm_rtree::validate::check(&self.tree),
                    Ok(()),
                    "index invariant audit failed after mutation {}",
                    self.audit_ops
                );
                debug_assert_eq!(
                    self.tree.len(),
                    self.items.len(),
                    "index and scan file differ"
                );
            }
        }
    }

    /// The stored spatio-temporal point of a record.
    pub fn point_of(&self, id: DocId) -> Option<StPoint> {
        let pos = *self.item_pos.get(&id.0)?;
        let p = self.items[pos].point;
        Some(StPoint::new(p.get(0), p.get(1), p.get(2) as i64))
    }

    /// Exact `|P ∩ Q|` for a 3-D query box, from index counts.
    pub fn exact_count(&self, rect3: &storm_geo::Rect3) -> usize {
        self.tree.count_in(rect3)
    }
}

/// Refuses a location that is not finite: it would make the extent
/// infinite for good, and a save would write it as `null`.
pub(crate) fn check_point(point: &StPoint) -> Result<(), EngineError> {
    if point.xy.is_finite() {
        Ok(())
    } else {
        Err(EngineError::NonFinitePoint(*point))
    }
}

/// `bounds` enlarged to cover `xy`.
fn grown(bounds: Option<Rect2>, xy: Point2) -> Rect2 {
    match bounds {
        None => Rect2::from_point(xy),
        Some(b) => b.enlarged_to_point(&xy),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storm_store::Value;

    fn record(x: f64, y: f64, t: i64, v: f64) -> StRecord {
        StRecord {
            point: StPoint::new(x, y, t),
            body: Value::object([
                ("v".into(), Value::Float(v)),
                ("text".into(), Value::from("hello world")),
                ("user".into(), Value::from("u1")),
            ]),
        }
    }

    fn dataset(n: usize) -> Dataset {
        let records = (0..n)
            .map(|i| record((i % 10) as f64, (i / 10) as f64, i as i64, i as f64))
            .collect();
        Dataset::build(
            "test",
            records,
            DatasetConfig {
                fanout: 8,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn build_populates_all_layers() {
        let ds = dataset(100);
        assert_eq!(ds.len(), 100);
        assert_eq!(ds.tree().len(), 100);
        assert_eq!(ds.items().len(), 100);
        assert_eq!(ds.collection().len(), 100);
        let stats = ds.stats();
        assert_eq!(stats.n, 100);
        assert_eq!(stats.block, 8);
    }

    #[test]
    fn attribute_lookup() {
        let ds = dataset(10);
        let id = ds.items()[3].id;
        assert_eq!(ds.number(id, "v"), Some(3.0));
        assert_eq!(ds.text(id, "user").as_deref(), Some("u1"));
        assert!(ds.number(id, "missing").is_none());
        assert!(ds.number(9999, "v").is_none());
    }

    #[test]
    fn insert_and_remove_keep_layers_in_sync() {
        let mut ds = dataset(50);
        let id = ds.insert(record(100.0, 100.0, 999, 42.0)).unwrap();
        assert_eq!(ds.len(), 51);
        assert_eq!(ds.tree().len(), 51);
        assert!(ds.bounds2().contains_point(&Point2::xy(100.0, 100.0)));
        assert!(ds.remove(id));
        assert!(!ds.remove(id));
        assert_eq!(ds.len(), 50);
        assert_eq!(ds.tree().len(), 50);
    }

    #[test]
    fn point_of_round_trips() {
        let ds = dataset(10);
        let id = DocId(ds.items()[7].id);
        let p = ds.point_of(id).unwrap();
        assert_eq!(p.t, 7);
        assert_eq!(p.xy, Point2::xy(7.0, 0.0));
    }

    #[test]
    fn exact_count_matches_scan() {
        let ds = dataset(200);
        let q = storm_geo::StQuery::new(
            Rect2::from_corners(Point2::xy(0.0, 0.0), Point2::xy(4.0, 4.0)),
            storm_geo::TimeRange::all(),
        );
        let rect3 = q.to_rect3().unwrap();
        let expected = ds
            .items()
            .iter()
            .filter(|it| rect3.contains_point(&it.point))
            .count();
        assert_eq!(ds.exact_count(&rect3), expected);
    }
}
