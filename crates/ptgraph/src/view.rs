//! Hash-consed local views.
//!
//! The view `V_{p}(PT^t)` of the paper (§3/§4) — process `p`'s causal past at
//! time `t` — is represented structurally:
//!
//! * at time 0, the view is the pair `(p, x_p)`;
//! * at time `t ≥ 1`, the view is `p`'s previous view plus the sorted list of
//!   `(q, q's view at t−1)` for every in-neighbor `q` of round `t`.
//!
//! Views are interned in a [`ViewTable`]: structural equality of causal pasts
//! becomes pointer ([`ViewId`]) equality, which is what makes the
//! prefix-space machinery (bucketing runs by view) cheap. The table also
//! memoizes per-view metadata — which processes are in the causal past and
//! which *initial values* are known — used by the broadcastability
//! characterization (paper Theorem 5.11).
//!
//! # Interning
//!
//! A view's structural key is fixed-width and `Copy`: the owner, the
//! received count and a round flag packed into one word (the packed-`Pid`
//! idiom), the previous view (or the input value), and the received
//! `(sender, view)` pairs inline — at most [`MAX_VIEW_N`]` − 1` of them.
//! Keys hash with an in-repo Fx-style multiply-rotate hash into one
//! open-addressing id index **per view time**, so interning allocates
//! nothing per key. A view of time `t` only ever references views of time
//! `t − 1`, which is what lets the expansion engine intern level by level:
//! every view of depth `t` is interned after every view of depth `t − 1`.
//!
//! Storage is persistent: views live in fixed-size chunks and the
//! per-time indexes sit behind `Arc`, so cloning a table is `O(chunks)`
//! and a clone that only appends deeper views (a ladder rung) shares every
//! lower level with its origin instead of copying it.

use std::fmt;
use std::sync::Arc;

use dyngraph::{mask, Digraph, Pid, PidMask};

use crate::Value;

/// The largest process count views support: a view key holds its received
/// views inline, at most `MAX_VIEW_N − 1` of them.
pub const MAX_VIEW_N: usize = 8;

/// An interned view handle. Equal ids ⟺ identical causal pasts (within one
/// [`ViewTable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViewId(u32);

impl ViewId {
    /// The raw table index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// `head` flag of a round view (initial views leave it clear).
const ROUND: u32 = 1 << 16;

/// The structural key of a view; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ViewKey {
    /// Owner in bits 0–7, received count in bits 8–15, [`ROUND`] for round
    /// views.
    head: u32,
    /// The previous view of a round view; the input value of an initial
    /// view.
    prev: u32,
    /// The received `(sender, view)` pairs sorted by sender; unused pairs
    /// stay zero.
    received: [(u8, ViewId); MAX_VIEW_N - 1],
}

impl ViewKey {
    const NO_PAIRS: [(u8, ViewId); MAX_VIEW_N - 1] = [(0, ViewId(0)); MAX_VIEW_N - 1];

    fn initial(p: Pid, x: Value) -> Self {
        ViewKey { head: p as u32, prev: x, received: Self::NO_PAIRS }
    }

    fn round(p: Pid, prev: ViewId) -> Self {
        ViewKey { head: p as u32 | ROUND, prev: prev.0, received: Self::NO_PAIRS }
    }

    /// Append a received pair (callers push in increasing sender order).
    fn push(&mut self, q: Pid, v: ViewId) {
        self.received[self.len()] = (q as u8, v);
        self.head += 1 << 8;
    }

    fn len(&self) -> usize {
        ((self.head >> 8) & 0xff) as usize
    }

    fn owner(&self) -> Pid {
        (self.head & 0xff) as Pid
    }

    fn prev(&self) -> Option<ViewId> {
        (self.head & ROUND != 0).then_some(ViewId(self.prev))
    }

    fn received(&self) -> &[(u8, ViewId)] {
        &self.received[..self.len()]
    }

    /// Fx-style hash: rotate, xor one word, multiply — over the packed
    /// header and the used pairs only. Keys hold ids this table assigned
    /// and values of the input domain, never raw outside data, so a fast
    /// unkeyed hash is safe here.
    fn hash(&self) -> u64 {
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(SEED);
        let mut h = mix(0, u64::from(self.head) | (u64::from(self.prev) << 32));
        for &(q, v) in self.received() {
            h = mix(h, u64::from(q) | (u64::from(v.0) << 8));
        }
        h
    }

    /// Every [`ViewId`] the key references.
    fn refs(&self) -> impl Iterator<Item = ViewId> + '_ {
        self.prev().into_iter().chain(self.received().iter().map(|&(_, v)| v))
    }

    /// The key with every contained [`ViewId`] pushed through `map`.
    fn mapped(&self, map: impl Fn(ViewId) -> ViewId) -> ViewKey {
        let mut key = *self;
        if let Some(prev) = self.prev() {
            key.prev = map(prev).0;
            for pair in &mut key.received[..self.len()] {
                pair.1 = map(pair.1);
            }
        }
        key
    }
}

/// Metadata cached for each interned view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewData {
    /// The owning process.
    pub process: Pid,
    /// The time of the view (0 for initial views).
    pub time: usize,
    /// Bitmask of processes whose initial node `(q, 0, x_q)` is in the
    /// causal past (always contains the owner).
    pub heard: PidMask,
    /// `inputs[q]` is `x_q` for every `q` in `heard` (zero elsewhere).
    inputs: [Value; MAX_VIEW_N],
}

impl ViewData {
    /// The owner's own input value.
    pub fn own_input(&self) -> Value {
        self.inputs[self.process]
    }

    /// The initial value of `q` if `(q, 0, x_q)` is in the causal past.
    pub fn input_of(&self, q: Pid) -> Option<Value> {
        self.has_heard(q).then(|| self.inputs[q])
    }

    /// Whether `q`'s initial node is in the causal past — "the owner has
    /// heard from `q`" (paper Definition 5.8 uses this with `q` the
    /// broadcaster).
    #[inline]
    pub fn has_heard(&self, q: Pid) -> bool {
        q < MAX_VIEW_N && mask::contains(self.heard, q)
    }

    /// The smallest initial value in the causal past (the decision rule of
    /// the classic min-flooding baseline).
    pub fn min_known_input(&self) -> Value {
        members(self.heard)
            .map(|q| self.inputs[q])
            .min()
            .expect("view knows its own input")
    }
}

/// The members of a mask in increasing order, without scanning empty bits.
fn members(mut m: PidMask) -> impl Iterator<Item = Pid> {
    std::iter::from_fn(move || {
        let p = m.trailing_zeros();
        (m != 0).then(|| {
            m &= m - 1;
            p as Pid
        })
    })
}

/// One interned view: its key and its metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    key: ViewKey,
    data: ViewData,
}

/// Open-addressing id index of the views of one time. A slot holds the
/// high 32 hash bits above `id + 1` (0 = empty); the bucket is the top
/// hash bits, so growing never rehashes a key.
#[derive(Debug, Clone, Default)]
struct LevelIndex {
    slots: Vec<u64>,
    len: usize,
}

impl LevelIndex {
    fn bucket(&self, fragment: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (fragment >> (32 - bits)) as usize
    }

    fn find(&self, hash: u64, is: impl Fn(ViewId) -> bool) -> Option<ViewId> {
        if self.slots.is_empty() {
            return None;
        }
        let fragment = hash >> 32;
        let wrap = self.slots.len() - 1;
        let mut i = self.bucket(fragment);
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return None;
            }
            if slot >> 32 == fragment {
                let id = ViewId((slot as u32) - 1);
                if is(id) {
                    return Some(id);
                }
            }
            i = (i + 1) & wrap;
        }
    }

    fn insert(&mut self, hash: u64, id: ViewId) {
        if 2 * (self.len + 1) > self.slots.len() {
            let grown = vec![0; (2 * self.slots.len()).max(16)];
            let old = std::mem::replace(&mut self.slots, grown);
            for slot in old.into_iter().filter(|&s| s != 0) {
                self.place(slot);
            }
        }
        self.place(((hash >> 32) << 32) | u64::from(id.0 + 1));
        self.len += 1;
    }

    fn place(&mut self, slot: u64) {
        let wrap = self.slots.len() - 1;
        let mut i = self.bucket(slot >> 32);
        while self.slots[i] != 0 {
            i = (i + 1) & wrap;
        }
        self.slots[i] = slot;
    }
}

/// Where interned views live — the shared [`ViewTable`] or a worker's
/// [`ShardTable`] — so the interning logic is written once.
trait Store {
    fn n(&self) -> usize;
    fn entry(&self, id: ViewId) -> &Entry;
    fn find(&self, time: usize, hash: u64, key: &ViewKey) -> Option<ViewId>;
    fn insert(&mut self, key: ViewKey, hash: u64, data: ViewData) -> ViewId;
}

fn intern_initial<S: Store>(s: &mut S, p: Pid, x: Value) -> ViewId {
    assert!(p < s.n());
    let key = ViewKey::initial(p, x);
    let hash = key.hash();
    if let Some(id) = s.find(0, hash, &key) {
        return id;
    }
    let mut inputs = [0; MAX_VIEW_N];
    inputs[p] = x;
    s.insert(key, hash, ViewData { process: p, time: 0, heard: mask::singleton(p), inputs })
}

/// Intern a round view whose key is already normalized; `time` is the
/// previous view's time plus one.
fn intern_key<S: Store>(s: &mut S, key: ViewKey, time: usize) -> ViewId {
    let hash = key.hash();
    if let Some(id) = s.find(time, hash, &key) {
        return id;
    }
    let mut data = s.entry(ViewId(key.prev)).data;
    data.time = time;
    for &(_, v) in key.received() {
        let d = &s.entry(v).data;
        for q in members(d.heard & !data.heard) {
            data.inputs[q] = d.inputs[q];
        }
        data.heard |= d.heard;
    }
    s.insert(key, hash, data)
}

fn intern_round<S: Store>(s: &mut S, p: Pid, prev: ViewId, received: &[(Pid, ViewId)]) -> ViewId {
    let prev_data = &s.entry(prev).data;
    assert_eq!(prev_data.process, p, "prev view must belong to p");
    let t = prev_data.time + 1;
    // Normalize: drop self-deliveries, validate sender/time, sort by
    // sender, keep the first view per sender.
    let mut key = ViewKey::round(p, prev);
    for &(q, vid) in received {
        if q == p {
            continue;
        }
        let d = &s.entry(vid).data;
        assert_eq!(d.process, q, "received view must belong to its sender");
        assert_eq!(d.time, t - 1, "received view must be from the previous round");
        let k = key.len();
        let at = key.received[..k].partition_point(|&(r, _)| (r as Pid) < q);
        if at < k && key.received[at].0 as Pid == q {
            continue;
        }
        key.received.copy_within(at..k, at + 1);
        key.received[at] = (q as u8, vid);
        key.head += 1 << 8;
    }
    intern_key(s, key, t)
}

fn intern_row<S: Store>(s: &mut S, prev: &[ViewId], g: &Digraph, out: &mut [ViewId]) {
    let n = s.n();
    assert!(prev.len() == n && out.len() == n, "a row holds one view per process");
    assert_eq!(g.n(), n, "graph and table disagree on n");
    let t = s.entry(prev[0]).data.time + 1;
    for (p, &v) in prev.iter().enumerate() {
        let d = &s.entry(v).data;
        assert_eq!(d.process, p, "prev view must belong to p");
        assert_eq!(d.time, t - 1, "received view must be from the previous round");
    }
    for (q, slot) in out.iter_mut().enumerate() {
        let mut key = ViewKey::round(q, prev[q]);
        for p in members(g.in_mask(q) & !mask::singleton(q)) {
            key.push(p, prev[p]);
        }
        *slot = intern_key(s, key, t);
    }
}

/// A sink for view interning — implemented by the shared [`ViewTable`] and
/// by per-worker [`ShardTable`]s, so run computation
/// ([`crate::PrefixRun::compute`]) is generic over where views land.
pub trait ViewInterner {
    /// Number of processes.
    fn n(&self) -> usize;

    /// Intern the time-0 view of process `p` with input `x`.
    fn intern_initial(&mut self, p: Pid, x: Value) -> ViewId;

    /// Intern the round-`t` view of `p` from its previous view and the
    /// received `(sender, sender's previous view)` pairs.
    fn intern_round(&mut self, p: Pid, prev: ViewId, received: &[(Pid, ViewId)]) -> ViewId;

    /// Intern one round of a run at once: `out[q]` becomes `q`'s view after
    /// round graph `g`, given the previous row `prev` (one view per
    /// process, all of one time). The row is checked once, not per key.
    ///
    /// # Panics
    /// Panics if `prev` is not a row of one time in process order, or on
    /// mismatched `n`.
    fn intern_row(&mut self, prev: &[ViewId], g: &Digraph, out: &mut [ViewId]);
}

/// Views per storage chunk: full chunks are shared between clones.
const CHUNK_BITS: u32 = 10;
const CHUNK: usize = 1 << CHUNK_BITS;

/// Interner for views; see the module docs.
///
/// ```
/// use ptgraph::{ViewTable, ViewId};
/// let mut table = ViewTable::new(2);
/// let a = table.intern_initial(0, 7);
/// let b = table.intern_initial(0, 7);
/// let c = table.intern_initial(0, 8);
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// assert_eq!(table.data(a).own_input(), 7);
/// ```
#[derive(Clone)]
pub struct ViewTable {
    n: usize,
    len: usize,
    /// Views in id order, [`CHUNK`] per chunk.
    chunks: Vec<Arc<Vec<Entry>>>,
    /// One id index per view time.
    index: Vec<Arc<LevelIndex>>,
}

impl ViewTable {
    /// A fresh table for systems of `n` processes.
    ///
    /// # Panics
    /// Panics if `n == 0` or `n > MAX_VIEW_N`.
    pub fn new(n: usize) -> Self {
        assert!((1..=MAX_VIEW_N).contains(&n), "views support 1 ≤ n ≤ {MAX_VIEW_N}, got {n}");
        ViewTable { n, len: 0, chunks: Vec::new(), index: Vec::new() }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of distinct views interned so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Intern the time-0 view of process `p` with input `x`.
    ///
    /// # Panics
    /// Panics if `p ≥ n`.
    pub fn intern_initial(&mut self, p: Pid, x: Value) -> ViewId {
        intern_initial(self, p, x)
    }

    /// Intern the round-`t` view of process `p` from its previous view and
    /// the received `(sender, sender's previous view)` pairs.
    ///
    /// `received` need not be sorted and must not contain `p` itself (a
    /// self-loop delivery is redundant with `prev` and is ignored).
    ///
    /// # Panics
    /// Panics if `prev` does not belong to `p`, if a received view does not
    /// belong to its claimed sender, or if times are inconsistent.
    pub fn intern_round(&mut self, p: Pid, prev: ViewId, received: &[(Pid, ViewId)]) -> ViewId {
        intern_round(self, p, prev, received)
    }

    #[inline]
    fn entry(&self, id: ViewId) -> &Entry {
        let i = id.index();
        &self.chunks[i >> CHUNK_BITS][i & (CHUNK - 1)]
    }

    /// Metadata of an interned view.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this table.
    #[inline]
    pub fn data(&self, id: ViewId) -> &ViewData {
        &self.entry(id).data
    }

    /// The `(sender, view)` pairs received in the view's round (empty for
    /// initial views).
    pub fn received(&self, id: ViewId) -> &[(u8, ViewId)] {
        self.entry(id).key.received()
    }

    /// The previous view of the same process, or `None` for initial views.
    pub fn prev(&self, id: ViewId) -> Option<ViewId> {
        self.entry(id).key.prev()
    }

    /// Merge a worker shard's local views into this table, in the shard's
    /// local insertion order, and return the remap `local index → global
    /// id`. The shard must have been built over a prefix of this table
    /// (`local.base_len() ≤ self.len()`); base ids are stable because the
    /// table only ever appends.
    ///
    /// Absorbing the shards of a chunked level in chunk order reproduces
    /// *exactly* the [`ViewId`] assignment of the serial pass: a view's
    /// first global occurrence is in the earliest chunk containing it, at
    /// its first position within that chunk — the same order in which a
    /// serial sweep over the chunks' rows would have interned it.
    ///
    /// # Panics
    /// Panics if the shard was built for a different `n` or over a longer
    /// base than this table.
    pub fn absorb(&mut self, local: &LocalViews) -> Vec<ViewId> {
        assert_eq!(local.n, self.n, "shard and table disagree on n");
        assert!(local.base_len <= self.len, "shard base is not a prefix of this table");
        let fresh = local.base_len == self.len;
        let mut remap: Vec<ViewId> = Vec::with_capacity(local.entries.len());
        for (entry, &hash) in local.entries.iter().zip(&local.hashes) {
            // Keys over base views only (every key of a one-level shard)
            // keep their hash; keys over shard-local views are remapped.
            let (key, hash) = if entry.key.refs().all(|id| id.index() < local.base_len) {
                (entry.key, hash)
            } else {
                let key = entry.key.mapped(|id| match id.index().checked_sub(local.base_len) {
                    Some(i) => remap[i],
                    None => id,
                });
                (key, key.hash())
            };
            // A shard over the whole current table already found every
            // view the table holds; the rest are new.
            let known = if fresh {
                None
            } else {
                Store::find(self, entry.data.time, hash, &key)
            };
            let id = match known {
                Some(id) => id,
                None => Store::insert(self, key, hash, entry.data),
            };
            remap.push(id);
        }
        remap
    }

    /// Render a view as a nested term, e.g. `p0[p0(x=1) | p1(x=0)←p1]`.
    pub fn render(&self, id: ViewId) -> String {
        let key = &self.entry(id).key;
        match key.prev() {
            None => format!("p{}(x={})", key.owner(), key.prev),
            Some(prev) => {
                let mut s = format!("p{}[{}", key.owner(), self.render(prev));
                for &(q, vid) in key.received() {
                    s.push_str(&format!(" | {}←p{q}", self.render(vid)));
                }
                s.push(']');
                s
            }
        }
    }
}

impl Store for ViewTable {
    fn n(&self) -> usize {
        self.n
    }

    fn entry(&self, id: ViewId) -> &Entry {
        ViewTable::entry(self, id)
    }

    fn find(&self, time: usize, hash: u64, key: &ViewKey) -> Option<ViewId> {
        self.index.get(time)?.find(hash, |id| self.entry(id).key == *key)
    }

    fn insert(&mut self, key: ViewKey, hash: u64, data: ViewData) -> ViewId {
        let id = ViewId(u32::try_from(self.len).expect("view table overflow"));
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Arc::new(Vec::new()));
        }
        let chunk = self.chunks.last_mut().expect("a chunk with room");
        Arc::make_mut(chunk).push(Entry { key, data });
        if self.index.len() <= data.time {
            self.index.resize_with(data.time + 1, Arc::default);
        }
        Arc::make_mut(&mut self.index[data.time]).insert(hash, id);
        self.len += 1;
        id
    }
}

impl ViewInterner for ViewTable {
    fn n(&self) -> usize {
        self.n
    }

    fn intern_initial(&mut self, p: Pid, x: Value) -> ViewId {
        intern_initial(self, p, x)
    }

    fn intern_round(&mut self, p: Pid, prev: ViewId, received: &[(Pid, ViewId)]) -> ViewId {
        intern_round(self, p, prev, received)
    }

    fn intern_row(&mut self, prev: &[ViewId], g: &Digraph, out: &mut [ViewId]) {
        intern_row(self, prev, g, out);
    }
}

impl PartialEq for ViewTable {
    /// Tables are equal when they hold the same views under the same ids.
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.len == other.len
            && self.chunks.iter().zip(&other.chunks).all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

impl Eq for ViewTable {}

impl fmt::Debug for ViewTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ViewTable").field("n", &self.n).field("len", &self.len).finish()
    }
}

/// A per-worker view interner layered over an immutable base [`ViewTable`].
///
/// Ids below `base.len()` resolve in the base; new views land in a local
/// extension with ids continuing from `base.len()`. Workers of a parallel
/// expansion level each build one shard against the shared base, then the
/// shards are [`ViewTable::absorb`]ed into the base in chunk order —
/// reproducing the serial interning order without any locking on the hot
/// path.
#[derive(Debug)]
pub struct ShardTable<'a> {
    base: &'a ViewTable,
    entries: Vec<Entry>,
    /// The hash of each entry's key, kept for [`ViewTable::absorb`].
    hashes: Vec<u64>,
    index: Vec<LevelIndex>,
}

impl<'a> ShardTable<'a> {
    /// A fresh shard over `base`.
    pub fn new(base: &'a ViewTable) -> Self {
        ShardTable { base, entries: Vec::new(), hashes: Vec::new(), index: Vec::new() }
    }

    /// Number of views interned locally (excluding the base).
    pub fn local_len(&self) -> usize {
        self.entries.len()
    }

    /// Detach the local extension for [`ViewTable::absorb`], releasing the
    /// borrow on the base.
    pub fn into_local(self) -> LocalViews {
        LocalViews {
            n: self.base.n,
            base_len: self.base.len,
            entries: self.entries,
            hashes: self.hashes,
        }
    }
}

impl Store for ShardTable<'_> {
    fn n(&self) -> usize {
        self.base.n
    }

    fn entry(&self, id: ViewId) -> &Entry {
        match id.index().checked_sub(self.base.len) {
            Some(local) => &self.entries[local],
            None => self.base.entry(id),
        }
    }

    fn find(&self, time: usize, hash: u64, key: &ViewKey) -> Option<ViewId> {
        Store::find(self.base, time, hash, key)
            .or_else(|| self.index.get(time)?.find(hash, |id| Store::entry(self, id).key == *key))
    }

    fn insert(&mut self, key: ViewKey, hash: u64, data: ViewData) -> ViewId {
        let raw = self.base.len + self.entries.len();
        let id = ViewId(u32::try_from(raw).expect("view table overflow"));
        self.entries.push(Entry { key, data });
        self.hashes.push(hash);
        if self.index.len() <= data.time {
            self.index.resize_with(data.time + 1, LevelIndex::default);
        }
        self.index[data.time].insert(hash, id);
        id
    }
}

impl ViewInterner for ShardTable<'_> {
    fn n(&self) -> usize {
        self.base.n
    }

    fn intern_initial(&mut self, p: Pid, x: Value) -> ViewId {
        intern_initial(self, p, x)
    }

    fn intern_round(&mut self, p: Pid, prev: ViewId, received: &[(Pid, ViewId)]) -> ViewId {
        intern_round(self, p, prev, received)
    }

    fn intern_row(&mut self, prev: &[ViewId], g: &Digraph, out: &mut [ViewId]) {
        intern_row(self, prev, g, out);
    }
}

/// The detached local extension of a [`ShardTable`], ready to be
/// [`ViewTable::absorb`]ed. Views are in local insertion order.
#[derive(Debug)]
pub struct LocalViews {
    n: usize,
    base_len: usize,
    entries: Vec<Entry>,
    hashes: Vec<u64>,
}

impl LocalViews {
    /// The base-table length this shard extended — ids below it are global.
    pub fn base_len(&self) -> usize {
        self.base_len
    }

    /// Number of locally interned views.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the shard interned nothing new.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Rewrite shard-local ids in `ids` to their global ids, given the remap
    /// [`ViewTable::absorb`] returned for this shard.
    pub fn remap(&self, ids: &mut [ViewId], remap: &[ViewId]) {
        for id in ids {
            if let Some(local) = id.index().checked_sub(self.base_len) {
                *id = remap[local];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyngraph::Digraph;

    #[test]
    fn initial_views_deduplicate() {
        let mut t = ViewTable::new(3);
        let a = t.intern_initial(1, 5);
        let b = t.intern_initial(1, 5);
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
        assert_ne!(t.intern_initial(2, 5), a);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn round_views_deduplicate_regardless_of_order() {
        let mut t = ViewTable::new(3);
        let v0 = t.intern_initial(0, 0);
        let v1 = t.intern_initial(1, 1);
        let v2 = t.intern_initial(2, 0);
        let a = t.intern_round(0, v0, &[(1, v1), (2, v2)]);
        let b = t.intern_round(0, v0, &[(2, v2), (1, v1)]);
        assert_eq!(a, b);
    }

    #[test]
    fn self_delivery_ignored() {
        let mut t = ViewTable::new(2);
        let v0 = t.intern_initial(0, 3);
        let a = t.intern_round(0, v0, &[(0, v0)]);
        let b = t.intern_round(0, v0, &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn metadata_accumulates() {
        let mut t = ViewTable::new(3);
        let v0 = t.intern_initial(0, 10);
        let v1 = t.intern_initial(1, 20);
        let r = t.intern_round(0, v0, &[(1, v1)]);
        let d = t.data(r);
        assert_eq!(d.time, 1);
        assert_eq!(d.heard, 0b011);
        assert_eq!(d.input_of(1), Some(20));
        assert_eq!(d.input_of(2), None);
        assert_eq!(d.own_input(), 10);
        assert_eq!(d.min_known_input(), 10);
        assert!(d.has_heard(1));
        assert!(!d.has_heard(2));
    }

    #[test]
    fn two_hop_knowledge() {
        let mut t = ViewTable::new(3);
        let v0 = t.intern_initial(0, 1);
        let v1 = t.intern_initial(1, 2);
        let v2 = t.intern_initial(2, 3);
        // Round 1: 0 → 1.
        let v1r1 = t.intern_round(1, v1, &[(0, v0)]);
        let v2r1 = t.intern_round(2, v2, &[]);
        // Round 2: 1 → 2.
        let v2r2 = t.intern_round(2, v2r1, &[(1, v1r1)]);
        let d = t.data(v2r2);
        assert_eq!(d.heard, 0b111);
        assert_eq!(d.input_of(0), Some(1));
        assert_eq!(d.min_known_input(), 1);
    }

    #[test]
    fn different_inputs_different_views() {
        let mut t = ViewTable::new(2);
        let a0 = t.intern_initial(0, 0);
        let b0 = t.intern_initial(0, 1);
        assert_ne!(a0, b0);
        let a1 = t.intern_round(0, a0, &[]);
        let b1 = t.intern_round(0, b0, &[]);
        assert_ne!(a1, b1, "views with different causal pasts never merge");
    }

    #[test]
    fn prev_and_received_accessors() {
        let mut t = ViewTable::new(2);
        let v0 = t.intern_initial(0, 0);
        let w0 = t.intern_initial(1, 1);
        let r = t.intern_round(0, v0, &[(1, w0)]);
        assert_eq!(t.prev(r), Some(v0));
        assert_eq!(t.prev(v0), None);
        assert_eq!(t.received(r), &[(1u8, w0)]);
        assert!(t.received(v0).is_empty());
    }

    #[test]
    fn render_nested() {
        let mut t = ViewTable::new(2);
        let v0 = t.intern_initial(0, 1);
        let w0 = t.intern_initial(1, 0);
        let r = t.intern_round(0, v0, &[(1, w0)]);
        assert_eq!(t.render(r), "p0[p0(x=1) | p1(x=0)←p1]");
    }

    #[test]
    fn shard_over_empty_base_replays_serially() {
        // Interning the same views serially and via a shard+absorb must
        // assign identical ids.
        let mut serial = ViewTable::new(2);
        let a0 = serial.intern_initial(0, 0);
        let b0 = serial.intern_initial(1, 1);
        let a1 = serial.intern_round(0, a0, &[(1, b0)]);

        let mut base = ViewTable::new(2);
        let mut shard = ShardTable::new(&base);
        let sa0 = ViewInterner::intern_initial(&mut shard, 0, 0);
        let sb0 = ViewInterner::intern_initial(&mut shard, 1, 1);
        let sa1 = ViewInterner::intern_round(&mut shard, 0, sa0, &[(1, sb0)]);
        let local = shard.into_local();
        let remap = base.absorb(&local);
        assert_eq!(remap[sa0.index()], a0);
        assert_eq!(remap[sb0.index()], b0);
        assert_eq!(remap[sa1.index()], a1);
        assert_eq!(base, serial);
    }

    #[test]
    fn shard_deduplicates_against_base_and_absorb_remaps() {
        let mut base = ViewTable::new(2);
        let a0 = base.intern_initial(0, 0);
        let b0 = base.intern_initial(1, 1);
        let known = base.intern_round(0, a0, &[]);
        let base_len = base.len();

        let mut shard = ShardTable::new(&base);
        // Already in the base: resolved there, nothing interned locally.
        assert_eq!(ViewInterner::intern_initial(&mut shard, 0, 0), a0);
        assert_eq!(ViewInterner::intern_round(&mut shard, 0, a0, &[]), known);
        assert_eq!(shard.local_len(), 0);
        // New: local ids continue from the base length.
        let fresh = ViewInterner::intern_round(&mut shard, 0, a0, &[(1, b0)]);
        assert_eq!(fresh.index(), base_len);
        let local = shard.into_local();
        assert_eq!(local.len(), 1);
        assert_eq!(local.base_len(), base_len);

        let remap = base.absorb(&local);
        assert_eq!(remap.len(), 1);
        assert_eq!(remap[0].index(), base_len);
        assert_eq!(base.data(remap[0]).heard, 0b011);
    }

    #[test]
    fn absorb_two_shards_first_chunk_wins() {
        // Both shards intern the same new view; after absorbing in chunk
        // order both remap to the id the first chunk created.
        let mut base = ViewTable::new(2);
        let a0 = base.intern_initial(0, 0);
        let s1 = {
            let mut shard = ShardTable::new(&base);
            ViewInterner::intern_round(&mut shard, 0, a0, &[]);
            shard.into_local()
        };
        let s2 = {
            let mut shard = ShardTable::new(&base);
            ViewInterner::intern_round(&mut shard, 0, a0, &[]);
            shard.into_local()
        };
        let r1 = base.absorb(&s1);
        let r2 = base.absorb(&s2);
        assert_eq!(r1, r2);
        assert_eq!(base.len(), 2);
    }

    #[test]
    fn run_remap_after_shard_compute_matches_direct() {
        use crate::PrefixRun;
        use dyngraph::GraphSeq;
        let seq = GraphSeq::parse2("-> <-").unwrap();

        let mut serial = ViewTable::new(2);
        let direct = PrefixRun::compute(vec![0, 1], &seq, &mut serial);

        let mut base = ViewTable::new(2);
        let mut shard = ShardTable::new(&base);
        let run = PrefixRun::compute(vec![0, 1], &seq, &mut shard);
        let local = shard.into_local();
        let remap = base.absorb(&local);
        let mut ids: Vec<ViewId> = (0..=2).flat_map(|t| run.views_at(t).to_vec()).collect();
        local.remap(&mut ids, &remap);
        let direct_ids: Vec<ViewId> = (0..=2).flat_map(|t| direct.views_at(t).to_vec()).collect();
        assert_eq!(base, serial);
        assert_eq!(ids, direct_ids);
    }

    #[test]
    fn row_interning_matches_per_view_interning() {
        let g = Digraph::from_edges(3, &[(0, 1), (2, 1), (1, 0)]).unwrap();
        let mut by_row = ViewTable::new(3);
        let mut by_view = ViewTable::new(3);
        let prev: Vec<ViewId> = (0..3).map(|p| by_row.intern_initial(p, p as Value)).collect();
        for p in 0..3 {
            by_view.intern_initial(p, p as Value);
        }
        let mut row = vec![prev[0]; 3];
        by_row.intern_row(&prev, &g, &mut row);
        for q in 0..3 {
            let received: Vec<(Pid, ViewId)> = g.in_neighbors(q).map(|p| (p, prev[p])).collect();
            assert_eq!(by_view.intern_round(q, prev[q], &received), row[q]);
        }
        assert_eq!(by_row, by_view);
        assert_eq!(by_row.data(row[1]).heard, 0b111);
    }

    #[test]
    fn clones_share_levels_and_diverge_independently() {
        let mut base = ViewTable::new(2);
        let a0 = base.intern_initial(0, 0);
        let mut copy = base.clone();
        let deeper = copy.intern_round(0, a0, &[]);
        assert_eq!(base.len(), 1);
        assert_eq!(copy.len(), 2);
        assert_eq!(copy.intern_initial(0, 0), a0, "the copy still finds shared views");
        assert_eq!(base.intern_round(0, a0, &[]), deeper, "both sides assign the same next id");
        assert_eq!(base, copy);
    }

    #[test]
    #[should_panic(expected = "views support")]
    fn oversized_systems_are_rejected() {
        let _ = ViewTable::new(MAX_VIEW_N + 1);
    }

    #[test]
    #[should_panic(expected = "prev view must belong to p")]
    fn intern_round_checks_owner() {
        let mut t = ViewTable::new(2);
        let v0 = t.intern_initial(0, 0);
        let _ = t.intern_round(1, v0, &[]);
    }

    #[test]
    #[should_panic(expected = "previous round")]
    fn intern_round_checks_times() {
        let mut t = ViewTable::new(2);
        let v0 = t.intern_initial(0, 0);
        let v1 = t.intern_round(0, v0, &[]);
        let w0 = t.intern_initial(1, 0);
        // w0 is at time 0 but p0's prev is at time 1 → received must be time 1.
        let _ = t.intern_round(0, v1, &[(1, w0)]);
    }
}
