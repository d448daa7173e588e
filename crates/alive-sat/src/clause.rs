//! Clause storage.
//!
//! Every clause lives inline in one flat arena of `u32` words: a header
//! word (length, `learnt` and `deleted` flags), a word holding the clause's
//! index into the side vectors, then the literal codes. Activity (for
//! learned-clause reduction) and LBD sit in the side vectors, so the
//! arena holds only what propagation reads. A [`ClauseRef`] is the
//! clause's arena offset, and allocation order is offset order.

use crate::lit::Lit;

/// Arena offset of a clause's header word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct ClauseRef(u32);

impl ClauseRef {
    /// A sentinel that never names a real clause (used for "no reason").
    pub(crate) const UNDEF: ClauseRef = ClauseRef(u32::MAX);

    /// This reference with `tag` in the top bit, which no arena offset uses.
    #[inline]
    pub(crate) fn with_tag(self, tag: bool) -> u32 {
        self.0 | (u32::from(tag) << 31)
    }

    /// Splits a word made by [`ClauseRef::with_tag`].
    #[inline]
    pub(crate) fn untag(word: u32) -> (ClauseRef, bool) {
        (ClauseRef(word & !(1 << 31)), word >> 31 != 0)
    }
}

/// Header flag: the clause was learned (eligible for deletion).
const LEARNT: u32 = 0b10;
/// Header flag: the clause was deleted; its words are dead until compaction.
const DELETED: u32 = 0b01;
/// Words in front of the literals: the header and the side-vector index.
const HEADER_WORDS: usize = 2;

/// The clause arena.
#[derive(Debug, Default)]
pub(crate) struct ClauseDb {
    words: Vec<u32>,
    activity: Vec<f64>,
    lbd: Vec<u32>,
    /// Words held by deleted clauses.
    dead_words: usize,
    /// Number of non-deleted learnt clauses.
    pub(crate) num_learnt: usize,
}

impl ClauseDb {
    /// Appends a clause and returns its reference.
    pub(crate) fn alloc(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "unit/empty clauses are not stored");
        // Offsets stay below 2^31, leaving the top bit free for a tag (see
        // ClauseRef::with_tag); lengths fit in 30 bits.
        assert!(
            lits.len() < 1 << 30 && self.words.len() + HEADER_WORDS + lits.len() < 1 << 31,
            "clause arena full"
        );
        let cref = ClauseRef(self.words.len() as u32);
        let flags = if learnt { LEARNT } else { 0 };
        self.words.push(((lits.len() as u32) << 2) | flags);
        self.words.push(self.activity.len() as u32);
        self.words.extend(lits.iter().map(|l| l.0));
        self.activity.push(0.0);
        self.lbd.push(0);
        if learnt {
            self.num_learnt += 1;
        }
        cref
    }

    /// Marks a clause deleted. Watches must be purged separately.
    pub(crate) fn free(&mut self, cref: ClauseRef) {
        debug_assert!(!self.is_deleted(cref));
        if self.header(cref) & LEARNT != 0 {
            self.num_learnt -= 1;
        }
        self.dead_words += HEADER_WORDS + self.len(cref);
        self.words[cref.0 as usize] |= DELETED;
    }

    #[inline]
    fn header(&self, cref: ClauseRef) -> u32 {
        self.words[cref.0 as usize]
    }

    #[inline]
    fn side(&self, cref: ClauseRef) -> usize {
        self.words[cref.0 as usize + 1] as usize
    }

    /// Number of literals.
    #[inline]
    pub(crate) fn len(&self, cref: ClauseRef) -> usize {
        (self.header(cref) >> 2) as usize
    }

    /// Whether the clause was deleted.
    #[inline]
    pub(crate) fn is_deleted(&self, cref: ClauseRef) -> bool {
        self.header(cref) & DELETED != 0
    }

    /// The `k`-th literal; the first two are the watched literals.
    #[inline]
    pub(crate) fn lit(&self, cref: ClauseRef, k: usize) -> Lit {
        Lit(self.words[cref.0 as usize + HEADER_WORDS + k])
    }

    /// The literal codes, for watch maintenance (reordering only).
    #[inline]
    pub(crate) fn lits_mut(&mut self, cref: ClauseRef) -> &mut [u32] {
        let start = cref.0 as usize + HEADER_WORDS;
        let len = self.len(cref);
        &mut self.words[start..start + len]
    }

    /// The literals, copied out.
    pub(crate) fn lits(&self, cref: ClauseRef) -> Vec<Lit> {
        (0..self.len(cref)).map(|k| self.lit(cref, k)).collect()
    }

    /// Activity used for learned-clause reduction.
    #[inline]
    pub(crate) fn activity(&self, cref: ClauseRef) -> f64 {
        self.activity[self.side(cref)]
    }

    /// Adds `inc` to the clause's activity and returns the new value.
    #[inline]
    pub(crate) fn bump(&mut self, cref: ClauseRef, inc: f64) -> f64 {
        let side = self.side(cref);
        self.activity[side] += inc;
        self.activity[side]
    }

    /// Multiplies every clause's activity by `factor`.
    pub(crate) fn scale_activities(&mut self, factor: f64) {
        for a in &mut self.activity {
            *a *= factor;
        }
    }

    /// Literal-block-distance (glue) of a learned clause.
    #[inline]
    pub(crate) fn lbd(&self, cref: ClauseRef) -> u32 {
        self.lbd[self.side(cref)]
    }

    pub(crate) fn set_lbd(&mut self, cref: ClauseRef, lbd: u32) {
        let side = self.side(cref);
        self.lbd[side] = lbd;
    }

    /// The references of all live learnt clauses, in allocation order.
    pub(crate) fn learnt_refs(&self) -> Vec<ClauseRef> {
        let mut out = Vec::with_capacity(self.num_learnt);
        let mut at = 0;
        while at < self.words.len() {
            let header = self.words[at];
            if header & (LEARNT | DELETED) == LEARNT {
                out.push(ClauseRef(at as u32));
            }
            at += HEADER_WORDS + (header >> 2) as usize;
        }
        out
    }

    /// Total words in the arena, live and dead.
    #[cfg(test)]
    pub(crate) fn arena_words(&self) -> usize {
        self.words.len()
    }

    /// Words held by live clauses.
    pub(crate) fn live_words(&self) -> usize {
        self.words.len() - self.dead_words
    }

    /// `true` once dead words outnumber live ones.
    pub(crate) fn needs_compaction(&self) -> bool {
        self.dead_words > self.live_words()
    }

    /// Moves every live clause to the front, keeping allocation order, and
    /// drops the dead ones. The returned [`Relocation`] maps each live
    /// clause's old reference to its new one; every reference held outside
    /// the arena must be rewritten through it.
    pub(crate) fn compact(&mut self) -> Relocation {
        let mut old = std::mem::take(&mut self.words);
        let old_activity = std::mem::take(&mut self.activity);
        let old_lbd = std::mem::take(&mut self.lbd);
        self.words.reserve(old.len() - self.dead_words);
        let mut at = 0;
        while at < old.len() {
            let header = old[at];
            let end = at + HEADER_WORDS + (header >> 2) as usize;
            if header & DELETED == 0 {
                let side = old[at + 1] as usize;
                let new_ref = self.words.len() as u32;
                self.words.push(header);
                self.words.push(self.activity.len() as u32);
                self.words.extend_from_slice(&old[at + HEADER_WORDS..end]);
                self.activity.push(old_activity[side]);
                self.lbd.push(old_lbd[side]);
                // The old side-index word becomes the forwarding address.
                old[at + 1] = new_ref;
            }
            at = end;
        }
        self.dead_words = 0;
        Relocation(old)
    }
}

/// The old arena after [`ClauseDb::compact`], each live clause's second
/// word overwritten with its new offset.
#[derive(Debug)]
pub(crate) struct Relocation(Vec<u32>);

impl Relocation {
    /// The new reference of a clause that was live at compaction.
    #[inline]
    pub(crate) fn get(&self, cref: ClauseRef) -> ClauseRef {
        debug_assert_eq!(
            self.0[cref.0 as usize] & DELETED,
            0,
            "relocating a deleted clause"
        );
        ClauseRef(self.0[cref.0 as usize + 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lits(n: usize) -> Vec<Lit> {
        (0..n).map(|i| Var::from_index(i).positive()).collect()
    }

    #[test]
    fn alloc_and_free_bookkeeping() {
        let mut db = ClauseDb::default();
        let a = db.alloc(&lits(3), false);
        let b = db.alloc(&lits(2), true);
        assert_eq!(db.num_learnt, 1);
        assert_eq!(db.len(a), 3);
        assert_eq!(db.lits(a), lits(3));
        assert_eq!(db.learnt_refs(), vec![b]);
        db.free(b);
        assert_eq!(db.num_learnt, 0);
        assert!(db.is_deleted(b));
        assert_eq!(db.learnt_refs().len(), 0);
        assert_eq!(db.live_words(), HEADER_WORDS + 3);
        assert_eq!(db.arena_words(), 2 * HEADER_WORDS + 5);
    }

    #[test]
    fn tag_round_trips_through_the_top_bit() {
        let mut db = ClauseDb::default();
        let _ = db.alloc(&lits(3), false);
        let c = db.alloc(&lits(2), false);
        for tag in [false, true] {
            assert_eq!(ClauseRef::untag(c.with_tag(tag)), (c, tag));
        }
    }

    #[test]
    fn learnt_refs_lists_live_learnts() {
        let mut db = ClauseDb::default();
        let _ = db.alloc(&lits(2), false);
        let l1 = db.alloc(&lits(2), true);
        let l2 = db.alloc(&lits(4), true);
        assert_eq!(db.learnt_refs(), vec![l1, l2]);
    }

    #[test]
    fn compaction_keeps_order_and_side_data() {
        let mut db = ClauseDb::default();
        let crefs: Vec<ClauseRef> = (2..8).map(|n| db.alloc(&lits(n), n % 2 == 0)).collect();
        for (i, &c) in crefs.iter().enumerate() {
            db.bump(c, i as f64);
            db.set_lbd(c, 10 + i as u32);
        }
        db.free(crefs[0]);
        db.free(crefs[3]);
        let live = db.live_words();
        let reloc = db.compact();
        assert_eq!(db.arena_words(), live);
        assert!(!db.needs_compaction());
        let moved: Vec<ClauseRef> = [1, 2, 4, 5].iter().map(|&i| reloc.get(crefs[i])).collect();
        assert!(moved.windows(2).all(|w| w[0].0 < w[1].0));
        for (&i, &c) in [1usize, 2, 4, 5].iter().zip(&moved) {
            assert_eq!(db.lits(c), lits(i + 2));
            assert_eq!(db.activity(c), i as f64);
            assert_eq!(db.lbd(c), 10 + i as u32);
        }
        assert_eq!(db.learnt_refs(), vec![moved[1], moved[2]]);
    }
}
