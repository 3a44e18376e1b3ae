//! The canonicalizer's side use index: who uses each SSA value.
//!
//! [`Operation::operands`](crate::op::Operation) is a public field that
//! the transformations write directly, so a [`Body`] cannot keep use
//! lists as an invariant of its own. The canonicalizer instead builds a
//! [`UseIndex`] once per function, routes every rewrite of fold / CSE /
//! DCE through it, and drops it when the function is done.
//!
//! Layout — flat arrays, no per-value or per-op allocation:
//!
//! * every operand position of every reachable op is one *slot*; the
//!   slots of one op are contiguous (`first_slot[op] + operand index`);
//! * the slots holding the same value form a doubly linked list
//!   (`next` / `prev`) rooted at `head[value]`.
//!
//! That makes "has `v` a use?" O(1), replace-all-uses O(uses of the
//! replaced value) (rewrite each slot's operand, splice the whole list
//! onto the replacement's) and erasing an op O(its operands) (unlink its
//! slots, set a tombstone). Tombstoned ops stay in their block's op list
//! until [`UseIndex::sweep`] drops them with one `retain` per touched
//! block.

use crate::body::{Body, Func};
use crate::ids::{BlockId, OpId, ValueId};

const NONE: u32 = u32::MAX;

/// Use lists of one function body plus the tombstones of ops erased
/// through it. Exact at all times: a slot is linked iff its op is
/// reachable, not tombstoned, and still has that operand.
pub(crate) struct UseIndex {
    /// Per arena op: its first slot (`NONE` when unreachable at build).
    first_slot: Vec<u32>,
    /// Per slot: the op owning it.
    slot_op: Vec<OpId>,
    /// Per slot: neighbours in the list of the value it holds.
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Per value: first slot holding it.
    head: Vec<u32>,
    /// Per arena op: erased through this index, or never reachable.
    dead: Vec<bool>,
    /// Blocks holding tombstoned ops (with repeats).
    dirty: Vec<BlockId>,
}

impl UseIndex {
    /// Indexes every op reachable from the top region of `body`.
    pub(crate) fn build(body: &Body) -> Self {
        let mut index = UseIndex {
            first_slot: vec![NONE; body.num_ops()],
            slot_op: Vec::new(),
            next: Vec::new(),
            prev: Vec::new(),
            head: vec![NONE; body.num_values()],
            dead: vec![true; body.num_ops()],
            dirty: Vec::new(),
        };
        body.walk(|op| {
            index.dead[op.index()] = false;
            index.first_slot[op.index()] = index.slot_op.len() as u32;
            for &v in &body.op(op).operands {
                // Push the new slot on the front of `v`'s list.
                let slot = index.slot_op.len() as u32;
                let old = std::mem::replace(&mut index.head[v.index()], slot);
                index.slot_op.push(op);
                index.prev.push(NONE);
                index.next.push(old);
                if old != NONE {
                    index.prev[old as usize] = slot;
                }
            }
        });
        index
    }

    fn unlink(&mut self, slot: u32, v: ValueId) {
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        if p == NONE {
            self.head[v.index()] = n;
        } else {
            self.next[p as usize] = n;
        }
        if n != NONE {
            self.prev[n as usize] = p;
        }
    }

    /// Unlinks every operand slot of `op`.
    fn unlink_operands(&mut self, body: &Body, op: OpId) {
        let first = self.first_slot[op.index()];
        for (i, &v) in body.op(op).operands.iter().enumerate() {
            self.unlink(first + i as u32, v);
        }
    }

    /// The slots holding `v`.
    fn slots(&self, v: ValueId) -> impl Iterator<Item = u32> + '_ {
        let mut slot = self.head[v.index()];
        std::iter::from_fn(move || {
            let current = slot;
            (current != NONE).then(|| {
                slot = self.next[current as usize];
                current
            })
        })
    }

    /// `true` once `op` was erased through this index (or was never
    /// reachable).
    pub(crate) fn is_dead(&self, op: OpId) -> bool {
        self.dead[op.index()]
    }

    /// `true` when no live op has `v` as an operand.
    pub(crate) fn is_unused(&self, v: ValueId) -> bool {
        self.head[v.index()] == NONE
    }

    /// The ops using `v`, once per operand position.
    pub(crate) fn users(&self, v: ValueId) -> impl Iterator<Item = OpId> + '_ {
        self.slots(v).map(|slot| self.slot_op[slot as usize])
    }

    /// Rewrites every use of `from` into a use of `to`.
    pub(crate) fn replace_all_uses(&mut self, body: &mut Body, from: ValueId, to: ValueId) {
        let first = self.head[from.index()];
        if first == NONE || from == to {
            return;
        }
        let mut last = first;
        loop {
            let op = self.slot_op[last as usize];
            let operand = (last - self.first_slot[op.index()]) as usize;
            body.op_mut(op).operands[operand] = to;
            match self.next[last as usize] {
                NONE => break,
                n => last = n,
            }
        }
        // Splice the whole `from` list in front of `to`'s.
        let old = self.head[to.index()];
        self.next[last as usize] = old;
        if old != NONE {
            self.prev[old as usize] = last;
        }
        self.head[to.index()] = first;
        self.head[from.index()] = NONE;
    }

    /// Unlinks and clears the operands of `op` (it is becoming a
    /// constant).
    pub(crate) fn drop_operands(&mut self, body: &mut Body, op: OpId) {
        self.unlink_operands(body, op);
        body.op_mut(op).operands.clear();
    }

    /// Tombstones `op`, whose results must be unused and which must hold
    /// no region: its operand uses vanish now, its entry in the parent
    /// block's op list at the next [`UseIndex::sweep`].
    pub(crate) fn erase(&mut self, body: &Body, op: OpId) {
        let o = body.op(op);
        debug_assert!(o.regions.is_empty() && o.results.iter().all(|&r| self.is_unused(r)));
        self.unlink_operands(body, op);
        self.dead[op.index()] = true;
        self.dirty.push(o.parent);
    }

    /// Drops the tombstoned ops from their blocks, one pass per block.
    pub(crate) fn sweep(&mut self, body: &mut Body) {
        self.dirty.sort_unstable();
        self.dirty.dedup();
        sweep_blocks(&self.dead, &self.dirty, body);
        self.dirty.clear();
    }

    /// Debug check of the index invariant: tombstones and use lists equal
    /// those of an index freshly built from the live ops of `body`.
    pub(crate) fn matches_rebuild(&self, body: &Body) -> bool {
        let mut live = body.clone();
        sweep_blocks(&self.dead, &self.dirty, &mut live);
        let fresh = UseIndex::build(&live);
        fresh.dead == self.dead
            && (0..body.num_values()).all(|v| {
                let v = ValueId::from_raw(v as u32);
                self.sorted_uses(v) == fresh.sorted_uses(v)
            })
    }

    /// `(op, operand index)` of every use of `v`, sorted.
    fn sorted_uses(&self, v: ValueId) -> Vec<(OpId, u32)> {
        let position = |slot| {
            let op = self.slot_op[slot as usize];
            (op, slot - self.first_slot[op.index()])
        };
        let mut uses: Vec<_> = self.slots(v).map(position).collect();
        uses.sort_unstable();
        uses
    }
}

/// A canonicalizer pass over an indexed body; returns its rewrite count.
pub(crate) type IndexedPass = fn(&mut Body, &mut UseIndex) -> usize;

/// Runs `passes` in order over one index of `func`, built before the
/// first and swept after the last. Returns the total rewrite count.
pub(crate) fn run_indexed(func: &mut Func, passes: &[IndexedPass]) -> usize {
    let body = &mut func.body;
    let mut uses = UseIndex::build(body);
    let mut rewrites = 0;
    for pass in passes {
        rewrites += pass(body, &mut uses);
        debug_assert!(uses.matches_rebuild(body), "use index out of sync");
    }
    uses.sweep(body);
    rewrites
}

fn sweep_blocks(dead: &[bool], blocks: &[BlockId], body: &mut Body) {
    for &block in blocks {
        body.block_mut(block).ops.retain(|o| !dead[o.index()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::types::Type;

    #[test]
    fn replace_all_uses_moves_the_whole_use_list() {
        let mut fb = FuncBuilder::new("f", vec![Type::F64, Type::F64], vec![Type::F64]);
        let (x, y) = (fb.arg(0), fb.arg(1));
        let sq = fb.mulf(x, x);
        let sum = fb.addf(sq, y);
        fb.ret(vec![sum]);
        let mut body = fb.finish().body;
        let mut uses = UseIndex::build(&body);
        let users = |uses: &UseIndex, v| uses.users(v).collect::<Vec<_>>();
        let (mul, add) = (
            body.defining_op(sq).unwrap(),
            body.defining_op(sum).unwrap(),
        );
        assert_eq!(users(&uses, x), vec![mul, mul], "once per operand position");

        uses.replace_all_uses(&mut body, x, y);
        assert_eq!(body.op(mul).operands, vec![y, y]);
        assert!(uses.is_unused(x));
        let mut of_y = users(&uses, y);
        of_y.sort_unstable();
        assert_eq!(of_y, vec![mul, mul, add]);
        assert!(uses.matches_rebuild(&body));
    }

    #[test]
    fn erase_releases_operands_now_and_the_block_slot_at_sweep() {
        let mut fb = FuncBuilder::new("f", vec![Type::F64], vec![Type::F64]);
        let x = fb.arg(0);
        let dead = fb.negf(x);
        fb.ret(vec![x]);
        let mut body = fb.finish().body;
        let mut uses = UseIndex::build(&body);
        let (neg, entry) = (body.defining_op(dead).unwrap(), body.entry_block());

        uses.erase(&body, neg);
        assert!(uses.is_dead(neg));
        assert_eq!(uses.users(x).count(), 1, "only the return is left");
        assert_eq!(body.block(entry).ops.len(), 2, "tombstoned, not yet swept");
        assert!(uses.matches_rebuild(&body));

        uses.sweep(&mut body);
        assert_eq!(body.block(entry).ops.len(), 1);
        assert!(uses.matches_rebuild(&body));
    }

    #[test]
    fn drop_operands_unlinks_every_slot() {
        let mut fb = FuncBuilder::new("f", vec![Type::F64], vec![Type::F64]);
        let x = fb.arg(0);
        let sq = fb.mulf(x, x);
        fb.ret(vec![sq]);
        let mut body = fb.finish().body;
        let mut uses = UseIndex::build(&body);
        let mul = body.defining_op(sq).unwrap();
        uses.drop_operands(&mut body, mul);
        assert!(body.op(mul).operands.is_empty() && uses.is_unused(x));
        assert!(uses.matches_rebuild(&body));
    }
}
