"""Struct-of-arrays BDD node store.

:class:`ArrayBddManager` keeps the exact signed-edge semantics of the dict
store (:class:`repro.bdd.manager.BddManager`) but changes the layout under
the API:

* the node vectors ``level``/``lo``/``hi`` are flat ``array('q')`` int64
  vectors instead of Python lists — three contiguous machine-word tables
  instead of three pointer arrays into heap-allocated ints, which both
  shrinks the table ~5x and makes every hot-loop child read a contiguous
  fetch;
* the unique table and every per-op apply cache are keyed on *packed
  integer keys* (a single small int per probe instead of a tuple object),
  with quantifier cubes and rename/restrict maps interned to per-manager
  integer ``uid``\\ s so they pack too;
* the mark phase of the GC and the sweep's unique-table rebuild are
  vectorised over the flat arrays (numpy views; pure-Python fallback when
  numpy is unavailable), and the sweep compacts the table tail (trailing
  free slots are trimmed so capacity tracks the live high-water mark, and
  budget accounting sees live slots — never stale array capacity);
* ``count_sat`` is a vectorised bottom-up pass over the flat arrays
  (:func:`repro.bdd._vector.count_sat_vector`);
* the flat layout is what makes read-only shared-memory snapshots of solved
  tables possible (:mod:`repro.bdd.snapshot`): the three vectors plus a
  frozen open-addressing unique table are copied verbatim into a named
  segment that other processes attach to copy-free.

Packed-key capacity bounds (per manager): at most ``2**23`` node slots
(edges fit 24 bits) and ``2**15 - 1`` variables (levels fit the remaining
key bits).  Both errors point at the dict store, which has no such bounds:
too many variables raises :class:`~repro.bdd.manager.BddError`, too many
nodes the typed limit :class:`~repro.errors.NodeSlotsExhausted`.

The differential suite (``tests/test_bdd_differential.py``) runs the full
formula corpus against both layouts; nothing outside this module may depend
on the layout.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Sequence

from ..errors import NodeBudgetExceeded, NodeSlotsExhausted
from . import _vector
from .manager import BddError, BddManager, QuantCube, QuantVars, _RenameMap

__all__ = ["ArrayBddManager", "EDGE_BITS", "MAX_NODE_INDEX", "MAX_LEVEL"]

#: Signed edges are packed into 24-bit fields: node index < 2**23.
EDGE_BITS = 24
#: Highest representable node index (23-bit index, sign bit makes 24).
MAX_NODE_INDEX = (1 << (EDGE_BITS - 1)) - 1
#: Unique keys pack ``(level << 48) | (lo << 24) | hi`` into an int64.
LEVEL_SHIFT = 2 * EDGE_BITS
#: Levels must fit the remaining 15 key bits of a non-negative int64.
MAX_LEVEL = (1 << 15) - 1


class ArrayBddManager(BddManager):
    """The struct-of-arrays node store (see the module docstring).

    Constructed via ``BddManager(..., store="array")`` (the default store)
    or directly.  Behaviourally identical to the dict store behind the
    signed-edge API.
    """

    STORE = "array"

    def __init__(
        self,
        var_names: Optional[Sequence[str]] = None,
        gc_enabled: bool = True,
        gc_threshold: int = 65_536,
        gc_growth: float = 2.0,
        cache_limit: Optional[int] = None,
        store: Optional[str] = None,
        debug_checks: Optional[bool] = None,
    ) -> None:
        # Interned cubes and rename/restrict maps get per-manager integer
        # uids so they pack into integer cache keys; the counter must exist
        # before super().__init__ declares the initial variables.
        self._next_uid = 0
        super().__init__(
            var_names=var_names,
            gc_enabled=gc_enabled,
            gc_threshold=gc_threshold,
            gc_growth=gc_growth,
            cache_limit=cache_limit,
            store="array",
            debug_checks=debug_checks,
        )
        # Re-home the node vectors as flat int64 arrays (only the terminal
        # exists at this point).  All inherited read paths index them
        # identically; only the vectorised passes care about the layout.
        self._level = array("q", self._level)
        self._lo = array("q", self._lo)
        self._hi = array("q", self._hi)

    # ------------------------------------------------------------------
    # Variable management (packed-key capacity guard)
    # ------------------------------------------------------------------
    def add_var(self, name: str) -> int:
        if len(self._var_names) >= MAX_LEVEL:
            raise BddError(
                f"array store supports at most {MAX_LEVEL} variables "
                "(packed-key bound); construct the manager with store='dict'"
            )
        return super().add_var(name)

    # ------------------------------------------------------------------
    # Node creation (packed unique key, slot-count guard)
    # ------------------------------------------------------------------
    def _mk(self, level: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        sign = hi & 1
        if sign:
            lo ^= 1
            hi ^= 1
        key = (level << LEVEL_SHIFT) | (lo << EDGE_BITS) | hi
        index = self._unique.get(key)
        if index is None:
            free = self._free
            if free:
                index = free.pop()
                self._level[index] = level
                self._lo[index] = lo
                self._hi[index] = hi
            else:
                index = len(self._level)
                if index > MAX_NODE_INDEX:
                    raise NodeSlotsExhausted(consumed=index, budget=MAX_NODE_INDEX)
                self._level.append(level)
                self._lo.append(lo)
                self._hi.append(hi)
            self._unique[key] = index
            self._live += 1
            if self._live > self._peak_live:
                self._peak_live = self._live
            # Budget accounting is over *live* nodes (post-compaction), never
            # array capacity: `_live` excludes free-listed slots and the
            # sweep trims the tail, so armed limits behave identically to
            # the dict store.
            if self._node_budget is not None and self._live > self._node_budget:
                raise NodeBudgetExceeded(consumed=self._live, budget=self._node_budget)
            if self._deadline is not None:
                self._deadline_countdown -= 1
                if self._deadline_countdown <= 0:
                    self._deadline_countdown = self._deadline_interval
                    self._check_deadline()
        return (index << 1) | sign

    # ------------------------------------------------------------------
    # Binary connectives (packed pair keys)
    # ------------------------------------------------------------------
    def _and(self, f: int, g: int) -> int:
        if f == g or g == 1:
            return f
        if f == 1:
            return g
        if f == 0 or g == 0 or f == g ^ 1:
            return 0
        if f > g:
            f, g = g, f
        key = (f << EDGE_BITS) | g
        cached = self._and_cache.get(key)
        if cached is not None:
            self._hits["and"] += 1
            return cached
        self._misses["and"] += 1
        f_index = f >> 1
        g_index = g >> 1
        level_f = self._level[f_index]
        level_g = self._level[g_index]
        if level_f == level_g:
            level = level_f
            f_sign = f & 1
            g_sign = g & 1
            lo = self._and(self._lo[f_index] ^ f_sign, self._lo[g_index] ^ g_sign)
            hi = self._and(self._hi[f_index] ^ f_sign, self._hi[g_index] ^ g_sign)
        elif level_f < level_g:
            level = level_f
            f_sign = f & 1
            lo = self._and(self._lo[f_index] ^ f_sign, g)
            hi = self._and(self._hi[f_index] ^ f_sign, g)
        else:
            level = level_g
            g_sign = g & 1
            lo = self._and(f, self._lo[g_index] ^ g_sign)
            hi = self._and(f, self._hi[g_index] ^ g_sign)
        result = lo if lo == hi else self._mk(level, lo, hi)
        self._and_cache[key] = result
        return result

    def _xor(self, f: int, g: int) -> int:
        sign = (f ^ g) & 1
        f &= ~1
        g &= ~1
        if f == g:
            return sign
        if f == 0:
            return g ^ sign
        if g == 0:
            return f ^ sign
        if f > g:
            f, g = g, f
        key = (f << EDGE_BITS) | g
        cached = self._xor_cache.get(key)
        if cached is not None:
            self._hits["xor"] += 1
            return cached ^ sign
        self._misses["xor"] += 1
        f_index = f >> 1
        g_index = g >> 1
        level_f = self._level[f_index]
        level_g = self._level[g_index]
        if level_f == level_g:
            level = level_f
            lo = self._xor(self._lo[f_index], self._lo[g_index])
            hi = self._xor(self._hi[f_index], self._hi[g_index])
        elif level_f < level_g:
            level = level_f
            lo = self._xor(self._lo[f_index], g)
            hi = self._xor(self._hi[f_index], g)
        else:
            level = level_g
            lo = self._xor(f, self._lo[g_index])
            hi = self._xor(f, self._hi[g_index])
        result = lo if lo == hi else self._mk(level, lo, hi)
        self._xor_cache[key] = result
        return result ^ sign

    # ------------------------------------------------------------------
    # ite (packed triple key)
    # ------------------------------------------------------------------
    def _ite(self, f: int, g: int, h: int) -> int:
        done, triple = self._ite_norm(f, g, h)
        if triple is None:
            return done
        f, g, h, sign = triple
        key = (((f << EDGE_BITS) | g) << EDGE_BITS) | h
        cached = self._ite_cache.get(key)
        if cached is not None:
            self._hits["ite"] += 1
            return cached ^ sign
        self._misses["ite"] += 1
        level = min(self._level[f >> 1], self._level[g >> 1], self._level[h >> 1])
        f_lo, f_hi = self._cofactors(f, level)
        g_lo, g_hi = self._cofactors(g, level)
        h_lo, h_hi = self._cofactors(h, level)
        lo = self._ite(f_lo, g_lo, h_lo)
        hi = self._ite(f_hi, g_hi, h_hi)
        result = self._mk(level, lo, hi)
        self._ite_cache[key] = result
        return result ^ sign

    # ------------------------------------------------------------------
    # Quantification (cube uids packed into keys)
    # ------------------------------------------------------------------
    def quant_cube(self, variables: QuantVars) -> Optional[QuantCube]:
        if isinstance(variables, QuantCube):
            levels = variables.levels
        else:
            levels = tuple(sorted(self._var_set(variables)))
            if not levels:
                return None
        cube = self._cube_table.get(levels)
        if cube is None:
            # A hand-built cube whose uid another manager already assigned
            # must not be adopted — uids are manager-local key components.
            if isinstance(variables, QuantCube) and variables.uid is None:
                cube = variables
            else:
                cube = QuantCube(levels)
            cube.uid = self._next_uid
            self._next_uid += 1
            self._cube_table[levels] = cube
        return cube

    def _exists(self, f: int, cube: QuantCube) -> int:
        if f <= 1:
            return f
        index = f >> 1
        level = self._level[index]
        if level > cube.last:
            return f
        key = (cube.uid << EDGE_BITS) | f
        cached = self._exists_cache.get(key)
        if cached is not None:
            self._hits["exists"] += 1
            return cached
        self._misses["exists"] += 1
        sign = f & 1
        lo = self._lo[index] ^ sign
        hi = self._hi[index] ^ sign
        if level in cube.members:
            r_lo = self._exists(lo, cube)
            if r_lo == self.TRUE:
                result = self.TRUE
            else:
                result = self.or_(r_lo, self._exists(hi, cube))
        else:
            result = self._mk(level, self._exists(lo, cube), self._exists(hi, cube))
        self._exists_cache[key] = result
        return result

    def _and_exists(self, f: int, g: int, cube: QuantCube) -> int:
        if f == 0 or g == 0 or f == g ^ 1:
            return 0
        if f == 1 and g == 1:
            return 1
        if f == 1:
            return self._exists(g, cube)
        if g == 1 or f == g:
            return self._exists(f, cube)
        if f > g:
            f, g = g, f
        level_f = self._level[f >> 1]
        level_g = self._level[g >> 1]
        level = level_f if level_f < level_g else level_g
        if level > cube.last:
            return self._and(f, g)
        key = (((cube.uid << EDGE_BITS) | f) << EDGE_BITS) | g
        cached = self._and_exists_cache.get(key)
        if cached is not None:
            self._hits["and_exists"] += 1
            return cached
        self._misses["and_exists"] += 1
        f_lo, f_hi = self._cofactors(f, level)
        g_lo, g_hi = self._cofactors(g, level)
        if level in cube.members:
            lo = self._and_exists(f_lo, g_lo, cube)
            if lo == self.TRUE:
                result = self.TRUE
            else:
                hi = self._and_exists(f_hi, g_hi, cube)
                result = self.or_(lo, hi)
        else:
            lo = self._and_exists(f_lo, g_lo, cube)
            hi = self._and_exists(f_hi, g_hi, cube)
            result = self._mk(level, lo, hi)
        self._and_exists_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Rename / restrict (map uids packed into keys)
    # ------------------------------------------------------------------
    def rename(self, f: int, mapping: Dict[int | str, int | str]) -> int:
        normalised: Dict[int, int] = {}
        for src, dst in mapping.items():
            src_index = self.var_index(src) if isinstance(src, str) else src
            dst_index = self.var_index(dst) if isinstance(dst, str) else dst
            if src_index != dst_index:
                normalised[src_index] = dst_index
        if not normalised:
            return f
        intern_key = tuple(sorted(normalised.items()))
        rmap = self._rename_table.get(intern_key)
        if rmap is not None:
            cached = self._rename_cache.get((rmap.uid << EDGE_BITS) | (f & ~1))
            if cached is not None:
                self._hits["rename"] += 1
                return cached ^ (f & 1)
        targets = list(normalised.values())
        if len(set(targets)) != len(targets):
            raise BddError("rename mapping must be injective")
        support = self.support(f)
        clashes = (set(targets) & support) - set(normalised)
        if clashes:
            names = sorted(self._var_names[i] for i in clashes)
            raise BddError(f"rename targets already in support: {names}")
        if rmap is None:
            rmap = _RenameMap(dict(normalised))
            rmap.uid = self._next_uid
            self._next_uid += 1
            self._rename_table[intern_key] = rmap
        ordered = sorted(support)
        mapped = [normalised.get(levels, levels) for levels in ordered]
        if all(mapped[i] < mapped[i + 1] for i in range(len(mapped) - 1)):
            self._rename_fast += 1
            return self._rename_shift(f, rmap)
        self._rename_slow += 1
        return self._rename_ite(f, rmap)

    def _rename_shift(self, f: int, rmap: "_RenameMap") -> int:
        if f <= 1:
            return f
        sign = f & 1
        f ^= sign
        key = (rmap.uid << EDGE_BITS) | f
        cached = self._rename_cache.get(key)
        if cached is not None:
            self._hits["rename"] += 1
            return cached ^ sign
        self._misses["rename"] += 1
        index = f >> 1
        lo = self._rename_shift(self._lo[index], rmap)
        hi = self._rename_shift(self._hi[index], rmap)
        level = self._level[index]
        mapping = rmap.mapping
        result = self._mk(mapping.get(level, level), lo, hi)
        self._rename_cache[key] = result
        return result ^ sign

    def _rename_ite(self, f: int, rmap: "_RenameMap") -> int:
        if f <= 1:
            return f
        sign = f & 1
        f ^= sign
        key = (rmap.uid << EDGE_BITS) | f
        cached = self._rename_cache.get(key)
        if cached is not None:
            self._hits["rename"] += 1
            return cached ^ sign
        self._misses["rename"] += 1
        index = f >> 1
        lo = self._rename_ite(self._lo[index], rmap)
        hi = self._rename_ite(self._hi[index], rmap)
        level = self._level[index]
        target = rmap.mapping.get(level, level)
        result = self.ite(self.var(target), hi, lo)
        self._rename_cache[key] = result
        return result ^ sign

    def restrict(self, f: int, assignment: Dict[int | str, bool]) -> int:
        fixed = {
            (self.var_index(var) if isinstance(var, str) else var): bool(value)
            for var, value in assignment.items()
        }
        if not fixed:
            return f
        key = tuple(sorted(fixed.items()))
        fmap = self._restrict_table.get(key)
        if fmap is None:
            fmap = _RenameMap(fixed)
            fmap.uid = self._next_uid
            self._next_uid += 1
            self._restrict_table[key] = fmap
        return self._restrict(f, fmap)

    def _restrict(self, f: int, fmap: "_RenameMap") -> int:
        if f <= 1:
            return f
        sign = f & 1
        f ^= sign
        key = (fmap.uid << EDGE_BITS) | f
        cached = self._restrict_cache.get(key)
        if cached is not None:
            self._hits["restrict"] += 1
            return cached ^ sign
        self._misses["restrict"] += 1
        index = f >> 1
        level = self._level[index]
        fixed = fmap.mapping
        if level in fixed:
            branch = self._hi[index] if fixed[level] else self._lo[index]
            result = self._restrict(branch, fmap)
        else:
            lo = self._restrict(self._lo[index], fmap)
            hi = self._restrict(self._hi[index], fmap)
            result = self._mk(level, lo, hi)
        self._restrict_cache[key] = result
        return result ^ sign

    # ------------------------------------------------------------------
    # Garbage collection (vectorised mark + sweep, tail compaction)
    # ------------------------------------------------------------------
    def collect_garbage(self, roots: Iterable[int] = ()) -> int:
        if not _vector.HAVE_NUMPY:
            return self._collect_garbage_scalar(roots)
        import numpy as np

        root_indices: List[int] = list(self._extref)
        for edge in roots:
            root_indices.append(edge >> 1)
        level_v = _vector.int64_view(self._level)
        lo_v = _vector.int64_view(self._lo)
        hi_v = _vector.int64_view(self._hi)
        mask = _vector.reachable_mask(level_v, lo_v, hi_v, root_indices)
        mask[0] = True
        dead = ~mask & (level_v != self._FREE_LEVEL)
        dead_idx = np.nonzero(dead)[0]
        reclaimed = int(dead_idx.size)
        self._gc_collections += 1
        if not reclaimed:
            del level_v, lo_v, hi_v
            if self._debug_checks:
                self._debug_validate()
            return 0
        # Unique-table update: delete the dead keys one by one when few are
        # dead, rebuild the whole table from the live slots (one vectorised
        # key computation) when a sweep kills most of it.
        if reclaimed * 2 >= len(self._unique):
            live_idx = np.nonzero(mask)[0]
            live_idx = live_idx[live_idx != 0]
            keys = (
                (level_v[live_idx] << LEVEL_SHIFT)
                | (lo_v[live_idx] << EDGE_BITS)
                | hi_v[live_idx]
            )
            self._unique = dict(zip(keys.tolist(), live_idx.tolist()))
        else:
            unique = self._unique
            keys = (
                (level_v[dead_idx] << LEVEL_SHIFT)
                | (lo_v[dead_idx] << EDGE_BITS)
                | hi_v[dead_idx]
            )
            for key in keys.tolist():
                del unique[key]
        level_v[dead_idx] = self._FREE_LEVEL
        lo_v[dead_idx] = 0
        hi_v[dead_idx] = 0
        # Compaction: trim the trailing run of free slots so capacity tracks
        # the live high-water mark; the free list is rebuilt descending so
        # `pop()` hands out the lowest index first (dense reuse).
        last_live = int(np.nonzero(mask)[0].max())
        free_idx = np.nonzero(~mask)[0]
        trim = len(self._level) - (last_live + 1)
        if trim > 0:
            free_idx = free_idx[free_idx <= last_live]
        self._free = free_idx[::-1].tolist()
        # Views pin the array buffers against resizing — drop every one of
        # them before the tail trim mutates the arrays.
        del level_v, lo_v, hi_v, mask, dead, dead_idx, free_idx, keys
        if trim > 0:
            del self._level[last_live + 1 :]
            del self._lo[last_live + 1 :]
            del self._hi[last_live + 1 :]
        self._live -= reclaimed
        self._gc_reclaimed += reclaimed
        self._drop_op_caches()
        for hook in self._gc_hooks:
            hook()
        if self._debug_checks:
            self._debug_validate()
        return reclaimed

    def _collect_garbage_scalar(self, roots: Iterable[int] = ()) -> int:
        """Numpy-less sweep: the dict store's scalar mark-and-sweep, but
        deleting *packed* unique keys and compacting the tail."""
        marked = bytearray(len(self._level))
        marked[0] = 1
        stack: List[int] = list(self._extref)
        for edge in roots:
            stack.append(edge >> 1)
        level = self._level
        lo = self._lo
        hi = self._hi
        while stack:
            index = stack.pop()
            if marked[index]:
                continue
            marked[index] = 1
            stack.append(lo[index] >> 1)
            stack.append(hi[index] >> 1)
        reclaimed = 0
        free_level = self._FREE_LEVEL
        unique = self._unique
        for index in range(1, len(level)):
            if marked[index] or level[index] == free_level:
                continue
            del unique[
                (level[index] << LEVEL_SHIFT) | (lo[index] << EDGE_BITS) | hi[index]
            ]
            level[index] = free_level
            lo[index] = 0
            hi[index] = 0
            self._free.append(index)
            reclaimed += 1
        self._gc_collections += 1
        if reclaimed:
            self._live -= reclaimed
            self._gc_reclaimed += reclaimed
            self._trim_tail_scalar()
            self._drop_op_caches()
            for hook in self._gc_hooks:
                hook()
        if self._debug_checks:
            self._debug_validate()
        return reclaimed

    def _trim_tail_scalar(self) -> None:
        """Tail compaction for the numpy-less sweep fallback."""
        level = self._level
        last = len(level) - 1
        free_level = self._FREE_LEVEL
        while last > 0 and level[last] == free_level:
            last -= 1
        if last == len(level) - 1:
            return
        keep = last + 1
        del self._level[keep:]
        del self._lo[keep:]
        del self._hi[keep:]
        self._free = sorted((i for i in self._free if i < keep), reverse=True)

    # ------------------------------------------------------------------
    # Kernel sanitizer (packed-key decoders)
    # ------------------------------------------------------------------
    def _unique_key(self, index: int) -> int:
        return (
            (self._level[index] << LEVEL_SHIFT)
            | (self._lo[index] << EDGE_BITS)
            | self._hi[index]
        )

    def _debug_cache_edges(self):
        """Decode the packed cache keys back into their signed edges.

        The encodings mirror the cache writers exactly: ``and``/``xor`` pack
        ``(f << 24) | g``, ``ite`` packs the operand triple, the quantifier
        and rename/restrict caches pack the interned object's uid above the
        edge field.
        """
        mask = (1 << EDGE_BITS) - 1
        for key, result in self._and_cache.items():
            yield "and", key >> EDGE_BITS
            yield "and", key & mask
            yield "and", result
        for key, result in self._xor_cache.items():
            yield "xor", key >> EDGE_BITS
            yield "xor", key & mask
            yield "xor", result
        for key, result in self._ite_cache.items():
            yield "ite", key >> (2 * EDGE_BITS)
            yield "ite", (key >> EDGE_BITS) & mask
            yield "ite", key & mask
            yield "ite", result
        for key, result in self._exists_cache.items():
            yield "exists", key & mask
            yield "exists", result
        for key, result in self._and_exists_cache.items():
            yield "and_exists", (key >> EDGE_BITS) & mask
            yield "and_exists", key & mask
            yield "and_exists", result
        for key, result in self._rename_cache.items():
            yield "rename", key & mask
            yield "rename", result
        for key, result in self._restrict_cache.items():
            yield "restrict", key & mask
            yield "restrict", result

    # ------------------------------------------------------------------
    # Vectorised model counting
    # ------------------------------------------------------------------
    def count_sat(self, f: int, variables: Optional[Iterable[int | str]] = None) -> int:
        if variables is None:
            var_set = frozenset(range(len(self._var_names)))
        else:
            var_set = self._var_set(variables)
            missing = self.support(f) - var_set
            if missing:
                names = sorted(self._var_names[i] for i in missing)
                raise BddError(
                    f"count_sat variables must cover the support; missing {names}"
                )
        order = sorted(var_set)
        total_levels = len(order)
        if f == self.FALSE:
            return 0
        if f == self.TRUE:
            return 1 << total_levels
        if (
            not _vector.HAVE_NUMPY
            or total_levels > _vector.MAX_VECTOR_COUNT_LEVELS
        ):
            # Exact fall-back: counts past 2**62 overflow int64, so wide
            # variable sets take the dict store's big-int memo recursion.
            return super().count_sat(f, variables)
        import numpy as np

        pos_of = np.full(max(len(self._var_names), 1), -1, dtype=np.int64)
        for pos, lvl in enumerate(order):
            pos_of[lvl] = pos
        level_v = _vector.int64_view(self._level)
        lo_v = _vector.int64_view(self._lo)
        hi_v = _vector.int64_view(self._hi)
        try:
            return _vector.count_sat_vector(
                level_v, lo_v, hi_v, f, pos_of, total_levels
            )
        finally:
            del level_v, lo_v, hi_v
