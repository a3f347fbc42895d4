//! A persistent ordered map: the one container under [`crate::table::Table`].
//!
//! A B+tree (entries in the leaves, separators and children in the inner
//! nodes) whose nodes sit behind [`Arc`] and are mutated through
//! [`Arc::make_mut`] down the root-to-leaf path. That one call is the whole
//! copy-on-write policy:
//!
//! * `clone` is a refcount bump of the root — no node, key or value is
//!   touched, whatever the size of the map;
//! * a write to a map that shares nodes with a clone copies the nodes on
//!   its path that are still shared (at most `height`, 3 at 4 096 entries)
//!   and leaves every other node pointer-identical in both maps;
//! * a write to a map nobody else holds finds every refcount at one and
//!   mutates in place, like any B-tree. Copying a node clones its keys
//!   and values: a refcount bump each for a table's `Arc` keys and rows.
//!
//! # Invariants (checked after every step of the model test below)
//!
//! * Keys are strictly ascending within a node and across the leaves.
//! * An inner node with `n` children has `n − 1` separators, and separator
//!   `i` **is** the least key of the subtree under child `i + 1` (not
//!   merely a bound on it: `remove` rewrites a separator whose key it took).
//! * All leaves are at one depth.
//! * No node holds more than [`FANOUT`] entries or children.
//! * No node other than the root is empty, and a root that is an inner
//!   node has at least two children.
//!
//! # Delete policy: drop empty nodes, collapse a single-child root
//!
//! `remove` never borrows from or merges with a sibling: a node that loses
//! its last entry or child is unlinked from its parent, and a root left
//! with one child is replaced by that child. A node may therefore stay
//! sparse after deletions — lookups and path copies cost its depth, not
//! its fill, and touching a sibling would copy a node the write has no
//! other reason to unshare. Nodes only come from splitting a full one in
//! half, so one needs `FANOUT / 2` insertions below it to split again, and
//! the height after `i` insertions of new keys is at most `⌈log₁₆ i⌉ + 1`.

use std::borrow::Borrow;
use std::sync::Arc;

/// Most entries a leaf, and most children an inner node, may hold.
const FANOUT: usize = 32;

#[derive(Debug, Clone)]
enum Node<K, V> {
    Leaf(Vec<(K, V)>),
    Inner {
        seps: Vec<K>,
        kids: Vec<Arc<Node<K, V>>>,
    },
}

/// Index of the child of an inner node whose subtree `key` belongs to.
fn child_for<K: Borrow<Q>, Q: Ord + ?Sized>(seps: &[K], key: &Q) -> usize {
    seps.partition_point(|s| s.borrow() <= key)
}

/// What an insertion hands its parent when it overflowed the node: the
/// right half split off it, under that half's least key.
type Split<K, V> = Option<(K, Arc<Node<K, V>>)>;

impl<K: Ord + Clone, V: Clone> Node<K, V> {
    fn is_empty(&self) -> bool {
        match self {
            Node::Leaf(entries) => entries.is_empty(),
            Node::Inner { kids, .. } => kids.is_empty(),
        }
    }

    /// Least key below a non-empty node.
    fn min_key(&self) -> &K {
        match self {
            Node::Leaf(entries) => &entries[0].0,
            Node::Inner { kids, .. } => kids[0].min_key(),
        }
    }

    /// Insert or replace below this node: the value replaced, and the
    /// split-off right half if the node overflowed.
    fn insert(&mut self, key: K, value: V) -> (Option<V>, Split<K, V>) {
        match self {
            Node::Leaf(entries) => match entries.binary_search_by(|(k, _)| k.cmp(&key)) {
                Ok(i) => (Some(std::mem::replace(&mut entries[i].1, value)), None),
                Err(i) => {
                    entries.insert(i, (key, value));
                    if entries.len() <= FANOUT {
                        return (None, None);
                    }
                    let right = entries.split_off(entries.len() / 2);
                    entries.shrink_to(FANOUT); // growing past it doubled it
                    let sep = right[0].0.clone();
                    (None, Some((sep, Arc::new(Node::Leaf(right)))))
                }
            },
            Node::Inner { seps, kids } => {
                let i = child_for(seps, &key);
                let (old, split) = Arc::make_mut(&mut kids[i]).insert(key, value);
                let Some((sep, right)) = split else {
                    return (old, None);
                };
                seps.insert(i, sep);
                kids.insert(i + 1, right);
                if kids.len() <= FANOUT {
                    return (old, None);
                }
                let right_kids = kids.split_off(kids.len() / 2);
                let right_seps = seps.split_off(kids.len());
                let sep = seps.pop().expect("one separator per child kept, plus one");
                let right = Node::Inner {
                    seps: right_seps,
                    kids: right_kids,
                };
                (old, Some((sep, Arc::new(right))))
            }
        }
    }

    /// Remove `key` below this node, returning its entry. A child this
    /// empties is unlinked; the caller unlinks this node if it emptied.
    fn remove<Q>(&mut self, key: &Q) -> Option<(K, V)>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        match self {
            Node::Leaf(entries) => {
                let i = entries
                    .binary_search_by(|(k, _)| k.borrow().cmp(key))
                    .ok()?;
                Some(entries.remove(i))
            }
            Node::Inner { seps, kids } => {
                let i = child_for(seps, key);
                let removed = Arc::make_mut(&mut kids[i]).remove(key)?;
                if kids[i].is_empty() {
                    kids.remove(i);
                    // The separator to its left — or, for child 0, the one
                    // naming the new first child, whose least key is now an
                    // ancestor's to track (it finds `key` in its own, below).
                    if !seps.is_empty() {
                        seps.remove(i.saturating_sub(1));
                    }
                } else if i > 0 && seps[i - 1].borrow() == key {
                    seps[i - 1] = kids[i].min_key().clone();
                }
                Some(removed)
            }
        }
    }
}

/// The map (see the [module docs](self)).
#[derive(Debug, Clone)]
pub(crate) struct PMap<K, V> {
    root: Arc<Node<K, V>>,
    len: usize,
}

impl<K: Ord + Clone, V: Clone> PMap<K, V> {
    pub(crate) fn new() -> Self {
        PMap {
            root: Arc::new(Node::Leaf(Vec::new())),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut node = &*self.root;
        loop {
            match node {
                Node::Leaf(entries) => {
                    let i = entries
                        .binary_search_by(|(k, _)| k.borrow().cmp(key))
                        .ok()?;
                    return Some(&entries[i].1);
                }
                Node::Inner { seps, kids } => node = &kids[child_for(seps, key)],
            }
        }
    }

    /// Insert `key`, or replace its value; returns the value replaced.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        let (old, split) = Arc::make_mut(&mut self.root).insert(key, value);
        if let Some((sep, right)) = split {
            self.root = Arc::new(Node::Inner {
                seps: vec![sep],
                kids: vec![Arc::clone(&self.root), right],
            });
        }
        self.len += usize::from(old.is_none());
        old
    }

    /// Remove `key`, returning the stored entry. (A miss on a map that
    /// shares nodes with a clone still unshares the path it searched.)
    pub(crate) fn remove_entry<Q>(&mut self, key: &Q) -> Option<(K, V)>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let removed = Arc::make_mut(&mut self.root).remove(key)?;
        self.len -= 1;
        while let Node::Inner { kids, .. } = &*self.root {
            let [only] = kids.as_slice() else { break };
            self.root = Arc::clone(only);
        }
        Some(removed)
    }

    /// Every entry, in ascending key order.
    pub(crate) fn iter(&self) -> Iter<'_, K, V> {
        Iter::new(&self.root, None::<&K>)
    }

    /// The entries whose key is `>= from`, in ascending key order.
    pub(crate) fn range_from<Q>(&self, from: &Q) -> Iter<'_, K, V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        Iter::new(&self.root, Some(from))
    }
}

/// In-order cursor over a [`PMap`]. It keeps its path: sibling links
/// would be more pointers into a node, so more nodes to copy on a write.
pub(crate) struct Iter<'a, K, V> {
    /// For each inner node on the path to `leaf`, the children to the
    /// right of the one taken.
    path: Vec<std::slice::Iter<'a, Arc<Node<K, V>>>>,
    leaf: std::slice::Iter<'a, (K, V)>,
}

impl<'a, K, V> Iter<'a, K, V> {
    fn new<Q>(root: &'a Node<K, V>, from: Option<&Q>) -> Self
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut iter = Iter {
            path: Vec::new(),
            leaf: [].iter(),
        };
        iter.descend(root, from);
        iter
    }

    /// Walk down from `node` to the leaf where `from` belongs (the
    /// leftmost leaf for `None`), recording the path.
    fn descend<Q>(&mut self, mut node: &'a Node<K, V>, from: Option<&Q>)
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        loop {
            match node {
                Node::Leaf(entries) => {
                    let start =
                        from.map_or(0, |f| entries.partition_point(|(k, _)| k.borrow() < f));
                    self.leaf = entries[start..].iter();
                    return;
                }
                Node::Inner { seps, kids } => {
                    let i = from.map_or(0, |f| child_for(seps, f));
                    self.path.push(kids[i + 1..].iter());
                    node = &kids[i];
                }
            }
        }
    }
}

impl<'a, K: Ord, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((k, v)) = self.leaf.next() {
                return Some((k, v));
            }
            let next = loop {
                match self.path.last_mut()?.next() {
                    Some(kid) => break kid,
                    None => self.path.pop(),
                };
            };
            self.descend(next, None::<&K>);
        }
    }
}

#[cfg(test)]
impl<K, V> PMap<K, V> {
    /// Levels from the root down to the leaves, both included.
    pub(crate) fn height(&self) -> usize {
        let mut node = &*self.root;
        let mut height = 1;
        while let Node::Inner { kids, .. } = node {
            node = &kids[0];
            height += 1;
        }
        height
    }

    /// How many of this map's nodes are not also (pointer-identically)
    /// nodes of `other` — what a writer copied or created since the two
    /// were one.
    pub(crate) fn nodes_unshared_with(&self, other: &Self) -> usize {
        self.unshared_with(other).len()
    }

    /// The keys held by the nodes [`Self::nodes_unshared_with`] counts:
    /// the entries and separators of what a writer copied or created.
    pub(crate) fn keys_unshared_with(&self, other: &Self) -> Vec<&K> {
        let mut keys = Vec::new();
        for node in self.unshared_with(other) {
            match node {
                Node::Leaf(entries) => keys.extend(entries.iter().map(|(k, _)| k)),
                Node::Inner { seps, .. } => keys.extend(seps),
            }
        }
        keys
    }

    fn unshared_with(&self, other: &Self) -> Vec<&Node<K, V>> {
        fn collect<K, V>(
            node: &Arc<Node<K, V>>,
            into: &mut std::collections::HashSet<*const Node<K, V>>,
        ) {
            into.insert(Arc::as_ptr(node));
            if let Node::Inner { kids, .. } = &**node {
                kids.iter().for_each(|kid| collect(kid, into));
            }
        }
        fn walk<'a, K, V>(
            node: &'a Arc<Node<K, V>>,
            theirs: &std::collections::HashSet<*const Node<K, V>>,
            into: &mut Vec<&'a Node<K, V>>,
        ) {
            if theirs.contains(&Arc::as_ptr(node)) {
                return; // and so is everything below it
            }
            into.push(node);
            if let Node::Inner { kids, .. } = &**node {
                kids.iter().for_each(|kid| walk(kid, theirs, into));
            }
        }
        let mut theirs = std::collections::HashSet::new();
        collect(&other.root, &mut theirs);
        let mut unshared = Vec::new();
        walk(&self.root, &theirs, &mut unshared);
        unshared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Assert the module-doc invariants below `node`; returns its height.
    fn check_node(node: &Node<i32, u32>, is_root: bool) -> usize {
        match node {
            Node::Leaf(entries) => {
                assert!(is_root || !entries.is_empty(), "empty non-root leaf");
                assert!(entries.len() <= FANOUT, "overfull leaf");
                assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "leaf order");
                1
            }
            Node::Inner { seps, kids } => {
                assert!(kids.len() >= if is_root { 2 } else { 1 }, "underfull");
                assert!(kids.len() <= FANOUT, "overfull inner node");
                assert_eq!(seps.len(), kids.len() - 1, "one separator per gap");
                let heights: Vec<usize> = kids.iter().map(|k| check_node(k, false)).collect();
                assert!(heights.windows(2).all(|w| w[0] == w[1]), "ragged leaves");
                for (sep, kid) in seps.iter().zip(&kids[1..]) {
                    assert_eq!(sep, kid.min_key(), "separator != least key on its right");
                }
                heights[0] + 1
            }
        }
    }

    /// A map, the `BTreeMap` it must equal, and how many new keys it has
    /// ever been given (what bounds its height).
    #[derive(Clone)]
    struct Pair {
        map: PMap<i32, u32>,
        model: BTreeMap<i32, u32>,
        new_keys: usize,
    }

    impl Pair {
        fn insert(&mut self, key: i32, value: u32) {
            let old = self.map.insert(key, value);
            assert_eq!(old, self.model.insert(key, value), "insert({key})");
            self.new_keys += usize::from(old.is_none());
        }

        fn remove(&mut self, key: i32) {
            assert_eq!(
                self.map.remove_entry(&key),
                self.model.remove_entry(&key),
                "remove({key})"
            );
        }

        /// `len`, full iteration, a range from `probe`, and the invariants.
        fn check(&self, probe: i32) {
            assert_eq!(self.map.len(), self.model.len());
            assert!(self.map.iter().eq(self.model.iter()), "iteration");
            assert!(
                self.map.range_from(&probe).eq(self.model.range(probe..)),
                "range_from({probe})"
            );
            let height = check_node(&self.map.root, true);
            assert_eq!(height, self.map.height());
            // ⌈log₁₆ new_keys⌉ + 1, by the argument in the module docs.
            let mut bound = 1;
            let mut reach = 1usize;
            while reach < self.new_keys {
                reach *= FANOUT / 2;
                bound += 1;
            }
            assert!(
                height <= bound,
                "height {height} after {} new keys",
                self.new_keys
            );
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(i32, u32),
        Remove(i32),
        /// Remove the `n` least keys `>= from`: what empties whole nodes.
        RemoveRun(i32, usize),
        Get(i32),
        /// Keep a clone of the live map; it must never change again.
        Clone,
        /// Continue on the `i`-th clone kept (modulo how many there are),
        /// keeping the live map in its place: both sides of a clone get
        /// written to.
        SwitchTo(usize),
    }

    /// Keys are drawn from a space about as large as the biggest map, so
    /// inserts hit existing keys (replace) about as often as new ones.
    const KEYS: std::ops::Range<i32> = 0..1500;

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (KEYS, any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (KEYS, any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            KEYS.prop_map(Op::Remove),
            KEYS.prop_map(Op::Remove),
            (KEYS, 1..200usize).prop_map(|(k, n)| Op::RemoveRun(k, n)),
            KEYS.prop_map(Op::Get),
            Just(Op::Clone),
            (0..8usize).prop_map(Op::SwitchTo),
        ]
    }

    proptest! {
        /// The map against `BTreeMap`, checked after every step — for the
        /// live map and for every clone taken on the way. Default case
        /// count, so `PROPTEST_CASES` scales it (nightly CI does).
        #[test]
        fn behaves_like_btreemap_and_clones_stay_put(
            initial in prop::collection::vec(KEYS, 0..1200usize),
            ops in prop::collection::vec(arb_op(), 0..100usize),
        ) {
            let mut live = Pair { map: PMap::new(), model: BTreeMap::new(), new_keys: 0 };
            for (i, key) in initial.into_iter().enumerate() {
                live.insert(key, i as u32);
            }
            live.check(0);
            let mut clones: Vec<Pair> = Vec::new();
            for op in ops {
                let probe = match op {
                    Op::Insert(key, value) => {
                        live.insert(key, value);
                        key
                    }
                    Op::Remove(key) => {
                        live.remove(key);
                        key
                    }
                    Op::RemoveRun(from, n) => {
                        let run: Vec<i32> = live.model.range(from..).take(n).map(|(k, _)| *k).collect();
                        run.into_iter().for_each(|key| live.remove(key));
                        from
                    }
                    Op::Get(key) => {
                        assert_eq!(live.map.get(&key), live.model.get(&key), "get({key})");
                        key
                    }
                    Op::Clone => {
                        clones.push(live.clone());
                        0
                    }
                    Op::SwitchTo(i) => {
                        if !clones.is_empty() {
                            let i = i % clones.len();
                            std::mem::swap(&mut live, &mut clones[i]);
                        }
                        0
                    }
                };
                live.check(probe);
                clones.iter().for_each(|c| c.check(probe));
            }
        }
    }

    #[test]
    fn emptying_the_map_leaves_one_empty_leaf() {
        let mut map = PMap::new();
        (0..5_000).for_each(|k| assert_eq!(map.insert(k, k), None));
        assert_eq!(map.height(), 3);
        let full = map.clone();
        // Front to back, then what is left back to front: every node
        // empties, on either end of its parent.
        (0..2_500).for_each(|k| assert_eq!(map.remove_entry(&k), Some((k, k))));
        (2_500..5_000)
            .rev()
            .for_each(|k| assert_eq!(map.remove_entry(&k), Some((k, k))));
        assert_eq!((map.len(), map.height()), (0, 1));
        assert_eq!(map.iter().next(), None);
        assert_eq!(map.remove_entry(&7), None);
        assert!(full.iter().map(|(k, _)| *k).eq(0..5_000), "clone untouched");
    }

    #[test]
    fn a_write_after_clone_copies_one_path() {
        let mut map = PMap::new();
        (0..100_000).for_each(|k| assert_eq!(map.insert(k, k), None));
        let snapshot = map.clone();
        assert_eq!(
            map.nodes_unshared_with(&snapshot),
            0,
            "clone copies nothing"
        );
        map.insert(50_000, 0);
        assert_eq!(map.nodes_unshared_with(&snapshot), map.height());
        // The path is now this map's own: writing there again copies nothing.
        map.remove_entry(&50_001);
        assert_eq!(map.nodes_unshared_with(&snapshot), map.height());
        assert_eq!(snapshot.get(&50_000), Some(&50_000));
        assert_eq!(snapshot.get(&50_001), Some(&50_001));
    }
}
