//! Doubly-linked block lists on one slab behind one index: [`ListSlab`].
//!
//! This is the shared backbone of the list-based policies. Every block
//! a policy tracks — resident or ghost — owns one node in a `Vec`, and
//! a direct array indexed by the block's [`BlockNo`] holds its node's
//! slot: finding a block is one array load, no hashing (the
//! [`BlockNumbering`](crate::BlockNumbering) that minted the number
//! hashed the block once, for every policy). The node records which of
//! the policy's lists it is on, so one lookup answers "is it tracked,
//! and where", and every move between lists (ARC's T1→T2 or T1→B1,
//! SLRU's probation↔protected, 2Q's A1in→A1out) is link surgery on
//! `u32` slots. The index is written only when a block is admitted and
//! when it is finally dropped. Links are slots, not pointers, so there
//! is no unsafe code; freed slots are recycled through a free list, so
//! a policy bounded by `n` tracked blocks never holds more than `n`
//! nodes. The index grows to the highest block number admitted: 4 bytes
//! per distinct block of the stream, whatever the capacity.

use crate::numbering::{BlockNo, DirectIndex};

/// The nil link. Slots are `u32`, so a slab holds fewer than
/// `u32::MAX` nodes (checked on growth).
pub(crate) const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    block: BlockNo,
    prev: u32,
    next: u32,
    /// The owner's id for the list this node is on.
    list: u32,
}

/// Head (next victim), tail (most recent) and length of one list whose
/// nodes live in a [`Slab`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ends {
    pub(crate) head: u32,
    pub(crate) tail: u32,
    pub(crate) len: u32,
}

impl Ends {
    pub(crate) const EMPTY: Ends = Ends {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// The node store and block index, with link surgery against list
/// [`Ends`] the caller holds: [`ListSlab`] keeps a fixed array of them,
/// [`crate::Lfu`] one per frequency bucket.
#[derive(Debug, Clone)]
pub(crate) struct Slab {
    /// Block number → slot.
    index: DirectIndex,
    nodes: Vec<Node>,
    /// Head of the free list, threaded through `next`.
    free: u32,
    /// Tracked blocks, over all lists.
    len: u32,
}

impl Slab {
    pub(crate) fn new() -> Self {
        Slab {
            index: DirectIndex::default(),
            nodes: Vec::new(),
            free: NIL,
            len: 0,
        }
    }

    /// Reserves the node store for `blocks` tracked blocks: address
    /// space only, as pages are touched when nodes are pushed. The
    /// index is not pre-sized; it grows with the block numbers admitted.
    pub(crate) fn with_capacity(blocks: usize) -> Self {
        Slab {
            nodes: Vec::with_capacity(blocks),
            ..Slab::new()
        }
    }

    /// Number of tracked blocks, over all lists.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    pub(crate) fn find(&self, block: BlockNo) -> Option<u32> {
        self.index.get(block)
    }

    pub(crate) fn block(&self, slot: u32) -> BlockNo {
        self.nodes[slot as usize].block
    }

    pub(crate) fn list(&self, slot: u32) -> u32 {
        self.nodes[slot as usize].list
    }

    pub(crate) fn next(&self, slot: u32) -> u32 {
        self.nodes[slot as usize].next
    }

    /// Starts tracking `block` (which must not be tracked) at the tail
    /// of the list `ends`, known to the owner as `list`.
    pub(crate) fn admit(&mut self, block: BlockNo, ends: &mut Ends, list: u32) -> u32 {
        let node = Node {
            block,
            prev: NIL,
            next: NIL,
            list,
        };
        let slot = if self.free == NIL {
            assert!(
                self.nodes.len() < NIL as usize,
                "list slab is out of u32 slots"
            );
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let slot = self.free;
            self.free = self.nodes[slot as usize].next;
            self.nodes[slot as usize] = node;
            slot
        };
        debug_assert!(self.index.get(block).is_none(), "admitted a tracked block");
        self.index.insert(block, slot);
        self.len += 1;
        self.link_tail(ends, slot, list);
        slot
    }

    /// Stops tracking the block in `slot`, which is on `ends`; the slot
    /// is free for reuse afterwards.
    pub(crate) fn evict(&mut self, ends: &mut Ends, slot: u32) -> BlockNo {
        self.unlink(ends, slot);
        let node = &mut self.nodes[slot as usize];
        node.next = self.free;
        self.free = slot;
        let block = node.block;
        debug_assert_eq!(
            self.index.get(block),
            Some(slot),
            "evicted an untracked slot"
        );
        self.index.remove(block);
        self.len -= 1;
        block
    }

    /// Detaches `slot` from `ends`, the list it is on.
    pub(crate) fn unlink(&mut self, ends: &mut Ends, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        ends.len -= 1;
        if prev == NIL {
            ends.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            ends.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
    }

    /// Appends the detached `slot` at the tail of `ends`.
    pub(crate) fn link_tail(&mut self, ends: &mut Ends, slot: u32, list: u32) {
        let old_tail = ends.tail;
        ends.tail = slot;
        ends.len += 1;
        if old_tail == NIL {
            ends.head = slot;
        } else {
            self.nodes[old_tail as usize].next = slot;
        }
        let node = &mut self.nodes[slot as usize];
        node.prev = old_tail;
        node.next = NIL;
        node.list = list;
    }
}

/// A tracked block's node in a [`ListSlab`]. Valid until that block is
/// dropped ([`ListSlab::pop_head`], [`ListSlab::remove`]); moves
/// between lists keep it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(u32);

/// `K` lists of blocks, each ordered head (oldest) to tail (newest),
/// over one node slab and one block index. A block is on at most one
/// list. All operations are O(1); only [`find`](ListSlab::find),
/// [`insert_tail`](ListSlab::insert_tail), [`pop_head`](ListSlab::
/// pop_head) and [`remove`](ListSlab::remove) touch the index.
///
/// # Example
///
/// ```
/// use cbs_cache::list::ListSlab;
/// use cbs_cache::BlockNumbering;
/// use cbs_trace::BlockId;
///
/// const RESIDENT: usize = 0;
/// const GHOST: usize = 1;
/// let mut numbers = BlockNumbering::new();
/// let (one, two) = (numbers.number(BlockId::new(1)), numbers.number(BlockId::new(2)));
/// let mut lists: ListSlab<2> = ListSlab::new();
/// lists.insert_tail(RESIDENT, one);
/// lists.insert_tail(RESIDENT, two);
/// // Demote the oldest resident block to the ghost list.
/// assert_eq!(lists.move_head_to_tail(RESIDENT, GHOST), Some(one));
/// let (slot, list) = lists.find(one).expect("still tracked");
/// assert_eq!(list, GHOST);
/// lists.move_to_tail(slot, RESIDENT); // ghost hit: back in, as newest
/// assert_eq!(lists.pop_head(RESIDENT), Some(two));
/// assert_eq!(lists.total_len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ListSlab<const K: usize> {
    slab: Slab,
    lists: [Ends; K],
}

impl<const K: usize> Default for ListSlab<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const K: usize> ListSlab<K> {
    /// Creates `K` empty lists.
    pub fn new() -> Self {
        ListSlab {
            slab: Slab::new(),
            lists: [Ends::EMPTY; K],
        }
    }

    /// Creates `K` empty lists with node room reserved for `blocks`
    /// blocks in total (reserved, not touched; the block index is not
    /// pre-sized, it grows with the block numbers admitted).
    pub fn with_capacity(blocks: usize) -> Self {
        ListSlab {
            slab: Slab::with_capacity(blocks),
            lists: [Ends::EMPTY; K],
        }
    }

    /// Number of blocks on `list`.
    pub fn len(&self, list: usize) -> usize {
        self.lists[list].len as usize
    }

    /// Returns `true` if `list` holds no block.
    pub fn is_empty(&self, list: usize) -> bool {
        self.lists[list].len == 0
    }

    /// Number of blocks over all lists.
    pub fn total_len(&self) -> usize {
        self.slab.len()
    }

    /// Looks `block` up: its slot and the list it is on.
    pub fn find(&self, block: BlockNo) -> Option<(Slot, usize)> {
        let slot = self.slab.find(block)?;
        Some((Slot(slot), self.slab.list(slot) as usize))
    }

    /// The oldest block of `list`, if any.
    pub fn head(&self, list: usize) -> Option<BlockNo> {
        let head = self.lists[list].head;
        (head != NIL).then(|| self.slab.block(head))
    }

    /// The newest block of `list`, if any.
    pub fn tail(&self, list: usize) -> Option<BlockNo> {
        let tail = self.lists[list].tail;
        (tail != NIL).then(|| self.slab.block(tail))
    }

    /// Starts tracking `block` as the newest of `list`. The block must
    /// not be tracked already ([`find`](ListSlab::find) first).
    pub fn insert_tail(&mut self, list: usize, block: BlockNo) -> Slot {
        Slot(self.slab.admit(block, &mut self.lists[list], list as u32))
    }

    /// Makes the block in `slot` the newest of `list`, wherever it was.
    pub fn move_to_tail(&mut self, slot: Slot, list: usize) {
        let from = self.slab.list(slot.0) as usize;
        if from == list && self.lists[list].tail == slot.0 {
            return;
        }
        self.slab.unlink(&mut self.lists[from], slot.0);
        self.slab
            .link_tail(&mut self.lists[list], slot.0, list as u32);
    }

    /// Moves the oldest block of `from` to the newest end of `to` and
    /// returns it; `None` if `from` is empty.
    pub fn move_head_to_tail(&mut self, from: usize, to: usize) -> Option<BlockNo> {
        let head = self.lists[from].head;
        if head == NIL {
            return None;
        }
        self.move_to_tail(Slot(head), to);
        Some(self.slab.block(head))
    }

    /// Drops the oldest block of `list` from the slab and returns it.
    pub fn pop_head(&mut self, list: usize) -> Option<BlockNo> {
        let head = self.lists[list].head;
        (head != NIL).then(|| self.slab.evict(&mut self.lists[list], head))
    }

    /// Drops the block in `slot` from the slab and returns it.
    pub fn remove(&mut self, slot: Slot) -> BlockNo {
        let list = self.slab.list(slot.0) as usize;
        self.slab.evict(&mut self.lists[list], slot.0)
    }

    /// Iterates `list` from oldest to newest. O(n); intended for tests
    /// and debugging.
    pub fn iter(&self, list: usize) -> impl Iterator<Item = BlockNo> + '_ {
        let mut cursor = self.lists[list].head;
        std::iter::from_fn(move || {
            if cursor == NIL {
                return None;
            }
            let block = self.slab.block(cursor);
            cursor = self.slab.next(cursor);
            Some(block)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u32) -> BlockNo {
        BlockNo::from_raw(i)
    }

    /// A one-list slab used the way `Lru` uses it.
    type Set = ListSlab<1>;

    fn push_mru(s: &mut Set, block: BlockNo) {
        match s.find(block) {
            Some((slot, _)) => s.move_to_tail(slot, 0),
            None => {
                s.insert_tail(0, block);
            }
        }
    }

    fn remove(s: &mut Set, block: BlockNo) -> bool {
        match s.find(block) {
            Some((slot, _)) => {
                assert_eq!(s.remove(slot), block);
                true
            }
            None => false,
        }
    }

    fn order(s: &Set) -> Vec<BlockNo> {
        s.iter(0).collect()
    }

    #[test]
    fn empty_set() {
        let mut s = Set::new();
        assert!(s.is_empty(0));
        assert_eq!(s.len(0), 0);
        assert_eq!(s.total_len(), 0);
        assert_eq!(s.head(0), None);
        assert_eq!(s.tail(0), None);
        assert_eq!(s.pop_head(0), None);
        assert_eq!(s.move_head_to_tail(0, 0), None);
        assert!(!remove(&mut s, b(1)));
    }

    #[test]
    fn push_orders_lru_to_mru() {
        let mut s = Set::new();
        for i in 1..=3 {
            push_mru(&mut s, b(i));
        }
        assert_eq!(order(&s), vec![b(1), b(2), b(3)]);
        assert_eq!(s.head(0), Some(b(1)));
        assert_eq!(s.tail(0), Some(b(3)));
    }

    #[test]
    fn push_existing_promotes() {
        let mut s = Set::new();
        for i in 1..=3 {
            push_mru(&mut s, b(i));
        }
        push_mru(&mut s, b(1));
        assert_eq!(order(&s), vec![b(2), b(3), b(1)]);
        assert_eq!(s.len(0), 3);
    }

    #[test]
    fn remove_middle_front_back() {
        let mut s = Set::new();
        for i in 1..=4 {
            push_mru(&mut s, b(i));
        }
        assert!(remove(&mut s, b(2))); // middle
        assert_eq!(order(&s), vec![b(1), b(3), b(4)]);
        assert!(remove(&mut s, b(1))); // front
        assert_eq!(s.head(0), Some(b(3)));
        assert!(remove(&mut s, b(4))); // back
        assert_eq!(s.tail(0), Some(b(3)));
        assert_eq!(s.len(0), 1);
    }

    #[test]
    fn pop_lru_drains_in_order() {
        let mut s = Set::new();
        for i in 0..10 {
            push_mru(&mut s, b(i));
        }
        let drained: Vec<_> = std::iter::from_fn(|| s.pop_head(0)).collect();
        assert_eq!(drained, (0..10).map(b).collect::<Vec<_>>());
        assert!(s.is_empty(0));
        assert_eq!(s.head(0), None);
        assert_eq!(s.tail(0), None);
    }

    #[test]
    fn single_element_edge_cases() {
        let mut s = Set::new();
        push_mru(&mut s, b(7));
        assert_eq!(s.head(0), Some(b(7)));
        assert_eq!(s.tail(0), Some(b(7)));
        push_mru(&mut s, b(7)); // self-promotion must not corrupt links
        assert_eq!(s.len(0), 1);
        assert_eq!(s.pop_head(0), Some(b(7)));
        assert!(s.is_empty(0));
    }

    #[test]
    fn interleaved_stress_against_vec_model() {
        // model: Vec kept in LRU..MRU order
        let mut s = Set::new();
        let mut model: Vec<BlockNo> = Vec::new();
        let ops: Vec<u32> = (0..500).map(|i| (i * 31 + 7) % 40).collect();
        for (step, &x) in ops.iter().enumerate() {
            let block = b(x);
            if step % 7 == 3 {
                let was = model.iter().position(|&m| m == block);
                assert_eq!(remove(&mut s, block), was.is_some());
                if let Some(pos) = was {
                    model.remove(pos);
                }
            } else {
                if let Some(pos) = model.iter().position(|&m| m == block) {
                    model.remove(pos);
                }
                model.push(block);
                push_mru(&mut s, block);
            }
            assert_eq!(order(&s), model, "step {step}");
        }
    }

    #[test]
    fn three_lists_against_vec_model() {
        // Interleaves admission, cross-list moves, head pops, removal
        // from the middle and slot reuse; after every step each list's
        // order and length and the index's membership must equal the
        // model's (three Vecs kept oldest → newest).
        let mut s: ListSlab<3> = ListSlab::new();
        let mut model: [Vec<BlockNo>; 3] = Default::default();
        let locate = |model: &[Vec<BlockNo>; 3], block: BlockNo| {
            (0..3).find_map(|l| {
                model[l]
                    .iter()
                    .position(|&m| m == block)
                    .map(|pos| (l, pos))
            })
        };
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u64| {
            // splitmix64: a fixed, well-mixed op sequence
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        let mut high_water = 0usize;
        for step in 0..4000 {
            let block = b(next(24) as u32);
            let list = next(3) as usize;
            match next(8) {
                // admit, or move across (or within) lists when tracked
                0..=3 => match locate(&model, block) {
                    Some((from, pos)) => {
                        let (slot, found_on) = s.find(block).expect("model says tracked");
                        assert_eq!(found_on, from, "step {step}");
                        s.move_to_tail(slot, list);
                        model[from].remove(pos);
                        model[list].push(block);
                    }
                    None => {
                        assert_eq!(s.find(block), None, "step {step}");
                        s.insert_tail(list, block);
                        model[list].push(block);
                    }
                },
                4 => {
                    let expected = (!model[list].is_empty()).then(|| model[list].remove(0));
                    assert_eq!(s.pop_head(list), expected, "step {step}");
                }
                5 => {
                    let to = next(3) as usize;
                    let expected = (!model[list].is_empty()).then(|| model[list].remove(0));
                    assert_eq!(s.move_head_to_tail(list, to), expected, "step {step}");
                    model[to].extend(expected);
                }
                _ => {
                    if let Some((from, pos)) = locate(&model, block) {
                        let (slot, _) = s.find(block).expect("model says tracked");
                        assert_eq!(s.remove(slot), block);
                        model[from].remove(pos);
                    }
                }
            }
            for (l, expected) in model.iter().enumerate() {
                assert_eq!(
                    &s.iter(l).collect::<Vec<_>>(),
                    expected,
                    "list {l}, step {step}"
                );
                assert_eq!(s.len(l), expected.len(), "list {l}, step {step}");
                assert_eq!(s.is_empty(l), expected.is_empty());
                assert_eq!(s.head(l), expected.first().copied());
                assert_eq!(s.tail(l), expected.last().copied());
            }
            let tracked: usize = model.iter().map(Vec::len).sum();
            assert_eq!(s.total_len(), tracked, "step {step}");
            for x in 0..24 {
                assert_eq!(
                    s.find(b(x)).map(|(_, l)| l),
                    locate(&model, b(x)).map(|(l, _)| l),
                    "membership of {x}, step {step}"
                );
            }
            // Freed slots are reused: the slab never holds more nodes
            // than the most blocks ever tracked at once.
            high_water = high_water.max(tracked);
            assert!(s.slab.nodes.len() <= high_water, "step {step}");
        }
        assert!(high_water > 12, "the walk must fill the lists");
    }
}
