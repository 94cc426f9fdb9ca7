"""Pure-python implementation of the table-driven verdict kernel.

This module is the compilation unit behind the
``repro.core._kernel_native`` seam: ``tools/build_native_kernel.py``
compiles a verbatim copy of this file with Cython and drops the
extension next to it; :mod:`repro.core.kernel` imports whichever is
available.  Keep it self-contained (only :mod:`repro.config` and
:mod:`repro.errors` imports) and free of typing-only constructs the
compilers reject.

:class:`KernelMachine` decides Problem ECPV with *exactly* the merged
GSS semantics of :class:`repro.core.machine.PVMachine` — the
differential suite pins ``kernel ≡ machine ≡ earley`` — but over the
dense tables of :mod:`repro.core.tables`:

* a GSS node is an index into parallel lists (``element id``,
  ``position``, ``parent mask``, ``finishable bit``) instead of an
  object; node ``0`` is the shared stack-bottom sentinel;
* a node's parent set is one ``int`` bitmask over node ids (bit ``0``
  is the bottom sentinel), so merging two contexts is one OR and the
  root-ward walk visits each ancestor once, however many frames share
  it — on wide mixed content, where every inline element embeds every
  other, a round's targets share most of their parent contexts;
* a token round intersects one precomputed closure bitmask with one
  match mask and one embed mask per explored frame key — no set
  iteration, no string comparison, no per-checker closure cache;
* round targets (consumption and continuation nodes) are interned in
  round-local parallel lists; hypothesized *entry* frames are never
  materialized at all — their shared continuation sets are resolved
  straight into the targets' parent masks when the round freezes
  (a machine entry node never becomes anyone's parent, so nothing
  observable is lost);
* acceptance replaces the machine's path-enumerating DFS with a
  linear reverse-reachability pass: a node is *good* when it is
  finishable and the bottom sentinel is reachable root-ward through
  finishable nodes; accept iff some surviving leaf is good.

Bit-twiddling idiom used throughout (lowest set bit extraction)::

    low = mask & -mask
    index = low.bit_length() - 1
    mask ^= low

Python ints are arbitrary-width, so automata with more than 63
positions need no widening logic (pinned by the bitmask-width tests).
"""

from repro.config import MACHINE_NODE_LIMIT
from repro.errors import PVError

__all__ = ["KernelMachine", "IMPLEMENTATION"]

#: Which build this is; the native copy is patched to say "native".
IMPLEMENTATION = "pure"

#: Pseudo-position "nothing consumed yet" (mirrors ``repro.core.dag.ENTRY``).
_ENTRY = -1

#: Node id of the shared stack-bottom sentinel, and its parent-mask bit.
_BOTTOM = 0
_BOTTOM_BIT = 1


def _compute_emissions(tables, position, sym):
    """One key's round emissions: (match indices, (index, child) descends).

    Document-independent — a pure function of the element tables, the
    position, and the symbol — so results live in the shared
    ``CompiledTables.emissions`` memo and the bit loops run once per
    distinct ``(element, position, symbol)`` triple per process.
    """
    closure = tables.closures[position + 1]
    if not closure:
        return ((), ())
    match_list = []
    mask = closure & tables.match_masks.get(sym, 0)
    while mask:
        low = mask & -mask
        mask ^= low
        match_list.append(low.bit_length() - 1)
    cont_list = []
    mask = closure & tables.embed_masks.get(sym, 0)
    pos_elem = tables.pos_elem
    while mask:
        low = mask & -mask
        mask ^= low
        index = low.bit_length() - 1
        cont_list.append((index, pos_elem[index]))
    return (tuple(match_list), tuple(cont_list))


class KernelMachine:
    """Exact ECPV recognizer over :class:`repro.core.tables.CompiledTables`.

    One instance checks one element's content sequence; construction is a
    handful of list appends, so per-node instantiation inside a document
    walk is cheap.  Feed interned symbol ids through :meth:`step` (or
    strings through :meth:`recognize`); ``-1`` is the "undeclared symbol"
    id and matches nothing anywhere.
    """

    __slots__ = (
        "tables",
        "element",
        "leaves",
        "rejected_at",
        "_elements",
        "_root_elem",
        "_root_tables",
        "_elem",
        "_pos",
        "_key",
        "_parents",
        "_fin",
        "_allocated",
        "_consumed",
        "_flat",
        "_flat_entry",
        "_flat_mask",
    )

    def __init__(self, tables, element):
        self.tables = tables
        self.element = element
        element_id = tables.sid[element]
        self._elements = tables.elements
        self._root_elem = element_id
        self._root_tables = tables.elements[element_id]
        # Parallel node store; node 0 is the bottom sentinel, node 1 the
        # root frame "checking <element>, nothing consumed yet".  Built
        # lazily on the first flat-regime exit — most content checks never
        # hypothesize an insertion and stay pure bitmask.
        self._elem = None
        self._pos = None
        # Per node: the packed exploration key (element << 21 | pos + 1).
        self._key = None
        self._parents = None
        self._fin = None
        self._allocated = 2
        self.leaves = [1]
        self.rejected_at = None
        self._consumed = 0
        # Flat regime: until the first insertion hypothesis fires, every
        # surviving node sits directly on the bottom sentinel in the root
        # element's automaton, so the whole GSS collapses to one bitmask
        # of positions and a round is pure bitwise arithmetic.
        self._flat = True
        self._flat_entry = True
        self._flat_mask = 0

    # -- stepping -------------------------------------------------------------

    def step(self, sym):
        """Feed one interned symbol id; False when no hypothesis survives."""
        if self.rejected_at is not None:
            return False
        if self._flat:
            # One shared-memo lookup decides the whole flat round: the
            # transition is a pure function of (element, state, symbol),
            # where state -1 is the virtual ENTRY state.  -1 as the cached
            # value means "an insertion hypothesis fires here".
            state = -1 if self._flat_entry else self._flat_mask
            fkey = (self._root_elem, state, sym)
            emissions = self.tables.emissions
            survivors = emissions.get(fkey)
            if survivors is None:
                tables = self._root_tables
                closures = tables.closures
                if state == -1:
                    closure = closures[0]
                else:
                    closure = 0
                    mask = state
                    while mask:
                        low = mask & -mask
                        mask ^= low
                        # bit i's closure lives in closures[i + 1]
                        closure |= closures[low.bit_length()]
                if closure and closure & tables.embed_masks.get(sym, 0):
                    survivors = -1
                else:
                    survivors = closure & tables.match_masks.get(sym, 0)
                emissions[fkey] = survivors
            if survivors != -1:
                self._consumed += 1
                self._flat_entry = False
                self._flat_mask = survivors
                if not survivors:
                    self.rejected_at = self._consumed - 1
                    return False
                return True
            # An insertion hypothesis fires: materialize the flat state as
            # GSS nodes and run the general round.
            self._exit_flat()
        leaves = self.leaves
        elements = self._elements
        fin = self._fin
        parents = self._parents

        # Fast path: a single surviving frame whose round-exploration set
        # is provably just itself (not finishable, or parented only by the
        # bottom sentinel) and whose closure hypothesizes no insertions
        # for this symbol.  The round is then pure consumption: each match
        # bit becomes a leaf sharing the frame's parent mask, skipping all
        # round-interning machinery.  This is the common shape for flat,
        # directly-matching content.
        if len(leaves) == 1:
            frame = leaves[0]
            frame_parents = parents[frame]
            if not fin[frame] or frame_parents == _BOTTOM_BIT:
                element_id = self._elem[frame]
                tables = elements[element_id]
                closure = tables.closures[self._pos[frame] + 1]
                if closure & tables.embed_masks.get(sym, 0) == 0:
                    mask = closure & tables.match_masks.get(sym, 0)
                    elem = self._elem
                    pos = self._pos
                    key = self._key
                    ebase = (element_id << 21) + 1
                    fin_mask = tables.fin_mask
                    node = self._allocated
                    new_leaves = []
                    while mask:
                        low = mask & -mask
                        mask ^= low
                        index = low.bit_length() - 1
                        elem.append(element_id)
                        pos.append(index)
                        key.append(ebase + index)
                        parents.append(frame_parents)
                        fin.append((fin_mask >> index) & 1)
                        new_leaves.append(node)
                        node += 1
                    self._allocated = node
                    if node > MACHINE_NODE_LIMIT:
                        raise PVError(
                            "KernelMachine exceeded its node allocation limit"
                        )
                    return self._finish_round(new_leaves)
        return self._full_step(sym)

    def _exit_flat(self):
        """Materialize the flat bitmask state as bottom-parented nodes."""
        self._flat = False
        element_id = self._root_elem
        if self._elem is None:
            self._elem = [-1, element_id]
            self._pos = [_ENTRY, _ENTRY]
            self._key = [0, element_id << 21]
            self._parents = [0, _BOTTOM_BIT]
            self._fin = [True, self._root_tables.entry_fin]
        if self._flat_entry:
            self.leaves = [1]
            return
        tables = self._root_tables
        elem = self._elem
        pos = self._pos
        key = self._key
        parents = self._parents
        fin = self._fin
        bottom_parents = parents[1]
        ebase = (element_id << 21) + 1
        fin_mask = tables.fin_mask
        node = self._allocated
        leaves = []
        mask = self._flat_mask
        while mask:
            low = mask & -mask
            mask ^= low
            index = low.bit_length() - 1
            elem.append(element_id)
            pos.append(index)
            key.append(ebase + index)
            parents.append(bottom_parents)
            fin.append((fin_mask >> index) & 1)
            leaves.append(node)
            node += 1
        self._allocated = node
        self.leaves = leaves

    def _full_step(self, sym):
        """The general round: key-replayed GSS exploration over bitmasks.

        Parent bookkeeping is done per exploration *key*, not per frame:
        every frame sharing a key contributes the same way to every target
        that key emits, so each target records the key records that
        emitted it, and a key's frame set is resolved into one parent
        mask exactly once when the round freezes.  This is observably
        identical to the machine's symmetric frame-by-frame source
        registration (the invariant both maintain: a target's parents are
        the union of its emitting keys' frames' parents).
        """
        elements = self._elements
        elem = self._elem
        pos = self._pos
        parents = self._parents
        fin = self._fin
        emissions = self.tables.emissions

        # Round targets: interned (kind, element, position) nodes-to-be.
        # kind 0 = consumption ("leaf"), kind 1 = continuation.  A target
        # is fully described by its packed key — ((element << 21 |
        # position+1) << 1) | kind — plus the key records that emitted it.
        target_key = []
        target_records = []
        target_index = {}
        # Entry frames: one per hypothesized missing element this round.
        # Never materialized — only their continuation sets survive (as a
        # mask of target indices; shifted by the round's base node id it
        # is the parent mask the entry contributes), referenced as
        # negative frame refs encoded -(entry_index + 1).  Newly created
        # entries join the exploration stack like any other frame
        # (ordering is free to differ from the machine's eager recursion:
        # the round's fixed point is the same either way).
        entry_conts = []
        entry_index = {}
        entry_packed = []
        # Per exploration key: [frames, resolved-parent-mask-or-None], or
        # False for a key that emits nothing this round (its frames need
        # no recording).  The positional exploration runs once per key;
        # later frames with the same key only widen the stack contexts.
        key_replay = {}

        # One worklist drives the whole exploration: surviving leaves, then
        # root-ward finishable ancestors (moving to a parent abandons a
        # frame: its remaining content must be silently completable), plus
        # hypothesized entry frames pushed as negative refs.  ``pushed``
        # masks every node already on the worklist (the bottom sentinel
        # included, so it is never walked): an ancestor shared by many
        # frames is pushed once.  Replays — a frame whose (element,
        # position) key was already explored — are the common case and
        # only widen the key's frame set; a fresh key interns its cached
        # emission lists inline.
        sym1 = sym + 1
        key = self._key
        key_get = key_replay.get
        emissions_get = emissions.get
        ti_get = target_index.get
        ei_get = entry_index.get
        stack = list(self.leaves)
        pushed = _BOTTOM_BIT
        for frame in stack:
            pushed |= 1 << frame
        pop = stack.pop
        push = stack.append
        while stack:
            frame = pop()
            if frame >= 0:
                packed = key[frame]
                if fin[frame]:
                    fresh = parents[frame] & ~pushed
                    if fresh:
                        pushed |= fresh
                        while fresh:
                            low = fresh & -fresh
                            fresh ^= low
                            push(low.bit_length() - 1)
            else:
                packed = entry_packed[-1 - frame]
            record = key_get(packed)
            if record:
                record[0].append(frame)
                continue
            if record is False:
                # Key already known to emit nothing for this symbol.
                continue
            ekey = (packed << 22) | sym1
            cached = emissions_get(ekey)
            element_id = packed >> 21
            if cached is None:
                cached = _compute_emissions(
                    elements[element_id], (packed & 0x1FFFFF) - 1, sym
                )
                emissions[ekey] = cached
            match_list, cont_list = cached
            if not match_list and not cont_list:
                # A dead key: no frame context ever needs recording.
                key_replay[packed] = False
                continue
            record = [[frame], None]
            key_replay[packed] = record
            ebase = (element_id << 21) + 1
            for index in match_list:
                tkey = (ebase + index) << 1
                tidx = ti_get(tkey)
                if tidx is None:
                    target_index[tkey] = len(target_key)
                    target_key.append(tkey)
                    target_records.append([record])
                else:
                    target_records[tidx].append(record)
            for index, child in cont_list:
                tkey = ((ebase + index) << 1) | 1
                tidx = ti_get(tkey)
                if tidx is None:
                    tidx = len(target_key)
                    target_index[tkey] = tidx
                    target_key.append(tkey)
                    target_records.append([record])
                else:
                    target_records[tidx].append(record)
                eidx = ei_get(child)
                if eidx is None:
                    entry_index[child] = len(entry_conts)
                    push(-1 - len(entry_conts))
                    entry_conts.append(1 << tidx)
                    entry_packed.append(child << 21)
                else:
                    entry_conts[eidx] |= 1 << tidx

        # Freeze: materialize targets as global nodes.  Entry refs resolve
        # to their continuation targets' global ids — base + tidx is known
        # before those nodes exist, so an entry's parent mask is its
        # target-index mask shifted by base.
        base = self._allocated
        count = len(target_key)
        self._allocated = base + count
        if self._allocated > MACHINE_NODE_LIMIT:
            raise PVError("KernelMachine exceeded its node allocation limit")

        def resolve(record):
            resolved = 0
            for ref in record[0]:
                if ref >= 0:
                    resolved |= parents[ref]
                else:
                    resolved |= entry_conts[-ref - 1] << base
            record[1] = resolved
            return resolved

        new_leaves = []
        root_elem = self._root_elem
        refold = True
        refold_mask = 0
        last_elem = -1
        fin_mask = 0
        for tidx in range(count):
            tkey = target_key[tidx]
            packed = tkey >> 1
            element_id = packed >> 21
            if element_id != last_elem:
                last_elem = element_id
                fin_mask = elements[element_id].fin_mask
            index = (packed & 0x1FFFFF) - 1
            parent_mask = 0
            for record in target_records[tidx]:
                resolved = record[1]
                if resolved is None:
                    resolved = resolve(record)
                parent_mask |= resolved
            elem.append(element_id)
            pos.append(index)
            key.append(packed)
            parents.append(parent_mask)
            fin.append((fin_mask >> index) & 1)
            if not tkey & 1:
                new_leaves.append(base + tidx)
                if refold:
                    if element_id == root_elem and parent_mask == _BOTTOM_BIT:
                        refold_mask |= 1 << index
                    else:
                        refold = False
        # When every survivor is a bottom-parented root-element node, the
        # GSS has collapsed back to the flat regime: drop to the bitmask
        # representation (the rest of the graph is unreachable garbage).
        if refold and new_leaves:
            self._flat = True
            self._flat_entry = False
            self._flat_mask = refold_mask
        return self._finish_round(new_leaves)

    def _finish_round(self, new_leaves):
        self._consumed += 1
        self.leaves = new_leaves
        if not new_leaves:
            self.rejected_at = self._consumed - 1
            return False
        return True

    # -- acceptance -----------------------------------------------------------

    def accepts_now(self):
        """Would stopping here be accepted? (A root-ward finishable path.)

        Equivalent to the machine's path DFS: a leaf is accepted iff the
        bottom sentinel is reachable through finishable nodes, and any
        root-ward path is witnessed by a simple one — so plain
        reachability over the parent masks (each node visited once)
        decides it without the DFS's pathological path enumeration.
        """
        if self.rejected_at is not None:
            return False
        if self._flat:
            if self._flat_entry:
                return self._root_tables.entry_fin
            return bool(self._flat_mask & self._root_tables.fin_mask)
        parents = self._parents
        fin = self._fin
        stack = []
        for leaf in self.leaves:
            if fin[leaf]:
                if parents[leaf] & _BOTTOM_BIT:
                    return True
                stack.append(leaf)
        # Slow path: walk root-ward from the finishable leaves through
        # finishable ancestors only (only they can extend a closing path)
        # until some node sits on the bottom sentinel.
        seen = _BOTTOM_BIT
        for node in stack:
            seen |= 1 << node
        while stack:
            mask = parents[stack.pop()]
            if mask & _BOTTOM_BIT:
                return True
            fresh = mask & ~seen
            seen |= fresh
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                node = low.bit_length() - 1
                if fin[node]:
                    stack.append(node)
        return False

    # -- string-level conveniences --------------------------------------------

    def recognize(self, symbols):
        """Decide ECPV for a ``Delta_T`` token sequence (strings)."""
        sid = self.tables.sid.get
        step = self.step
        for symbol in symbols:
            if not step(sid(symbol, -1)):
                return False
        return self.accepts_now()

    def accepts(self, symbols):
        """Alias of :meth:`recognize` mirroring the machine's API."""
        return self.recognize(symbols)

    @property
    def allocated_nodes(self):
        """Total GSS nodes materialized (benchmark instrumentation)."""
        return self._allocated
