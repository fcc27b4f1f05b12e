//! Layer attribution over an aggregated [`SpanTree`]: totals by span
//! name and self time (a span's duration minus its children's).

use std::collections::BTreeMap;

use clos_telemetry::SpanTree;

/// `(count, total nanoseconds)` of every recorded path.
fn flatten(tree: &SpanTree) -> BTreeMap<Vec<String>, (u64, u64)> {
    let mut nodes = BTreeMap::new();
    tree.visit(|path, count, nanos| {
        let key = path.iter().map(|s| (*s).to_string()).collect();
        nodes.insert(key, (count, nanos));
    });
    nodes
}

/// Total nanoseconds over every node named `name`, wherever it sits.
pub fn total_named(tree: &SpanTree, name: &str) -> u64 {
    flatten(tree)
        .iter()
        .filter(|(path, _)| path.last().is_some_and(|n| n == name))
        .map(|(_, &(_, nanos))| nanos)
        .sum()
}

/// Total nanoseconds of the nodes named `child` directly under nodes
/// named `parent`.
pub fn total_under(tree: &SpanTree, parent: &str, child: &str) -> u64 {
    flatten(tree)
        .iter()
        .filter(|(path, _)| {
            path.len() >= 2 && path[path.len() - 1] == child && path[path.len() - 2] == parent
        })
        .map(|(_, &(_, nanos))| nanos)
        .sum()
}

/// Self time, summed over every node named `name`: each node's total
/// minus the totals of its direct children. Root spans opened inside a
/// node (`span_root`, e.g. `search.block` on the spawning thread) are
/// separate roots in the tree, so they are not subtracted.
pub fn self_named(tree: &SpanTree, name: &str) -> u64 {
    let nodes = flatten(tree);
    let mut total = 0u64;
    for (path, &(_, nanos)) in &nodes {
        if path.last().is_none_or(|n| n != name) {
            continue;
        }
        let children: u64 = nodes
            .iter()
            .filter(|(p, _)| p.len() == path.len() + 1 && p.starts_with(path))
            .map(|(_, &(_, n))| n)
            .sum();
        total += nanos.saturating_sub(children);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> SpanTree {
        let mut t = SpanTree::new();
        t.record_path(&["search"], 1_000);
        t.record_path(&["search", "search.compile"], 100);
        t.record_path(&["search", "search.seed"], 50);
        t.record_path(&["search", "search.seed", "waterfill"], 30);
        t.record_path(&["search.block"], 400);
        t.record_path(&["search.block"], 600);
        t.record_path(&["search.block", "waterfill"], 700);
        t.record_path(&["churn.epoch"], 90);
        t.record_path(&["churn.epoch", "waterfill"], 60);
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = synthetic();
        // 1000 - (100 + 50); the grandchild waterfill is inside seed.
        assert_eq!(self_named(&t, "search"), 850);
        assert_eq!(self_named(&t, "search.seed"), 20);
        // Two occurrences aggregate into one node: 1000 - 700.
        assert_eq!(self_named(&t, "search.block"), 300);
        assert_eq!(self_named(&t, "churn.epoch"), 30);
        // Leaves keep their whole duration.
        assert_eq!(self_named(&t, "waterfill"), 790);
        assert_eq!(self_named(&t, "absent"), 0);
    }

    #[test]
    fn totals_by_name_and_by_parent() {
        let t = synthetic();
        assert_eq!(total_named(&t, "waterfill"), 790);
        assert_eq!(total_under(&t, "search.block", "waterfill"), 700);
        assert_eq!(total_under(&t, "churn.epoch", "waterfill"), 60);
        assert_eq!(total_under(&t, "search", "waterfill"), 0);
    }

    #[test]
    fn self_time_saturates_on_inconsistent_input() {
        let mut t = SpanTree::new();
        t.record_path(&["a"], 10);
        t.record_path(&["a", "b"], 25);
        assert_eq!(self_named(&t, "a"), 0);
    }
}
