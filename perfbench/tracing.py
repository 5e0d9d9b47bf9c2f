"""In-memory spans around calls into the library's layers.

The traced run wraps every public function and every value constructor of
the layer modules, rebinding each module-level name that refers to one, so
calls between layers are spanned as well as the benchmark's own calls.
Nothing in the library changes; the wrappers are removed when the traced
phase ends.  Calls that reach a function through a stored reference (the
property functions held in ``verify.SUITES``) are not spanned; their time
is self time of the layer that holds the reference.

Per name the tracer keeps call count, inclusive time and self time (time
not covered by child spans).  The first SPAN_BUFFER spans are also kept
whole (id, parent id, name, start, end) and written out at the end.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import math
import sys
import time
import types


LAYERS = ("linalg", "core", "groups", "actions", "contact", "codec",
          "sampling", "oracle", "verify", "cli")
SPAN_BUFFER = 50_000
# Not spanned: the stream workloads span codec.decode/encode themselves, with
# the JSON text included; the other names are helpers that convert, compare
# or draw small arrays in about a microsecond, less than a span costs.  Their
# time is self time of the caller.
UNSPANNED = frozenset((
    "codec.decode", "codec.encode", "core.Dims", "verify.PropertyResult",
    "linalg.as_float_array", "linalg.freeze", "linalg.inf_norm", "linalg.close",
    "linalg.scaled_error", "linalg.swap_last2", "linalg.sym_part",
    "linalg.alt_part", "linalg.is_integer_valued", "linalg.det_scale",
    "linalg.complement", "sampling.ints", "sampling.rng_from"))


@functools.lru_cache(maxsize=None)
def lex_rank(I, n: int) -> int:
    """Position of the m-subset I among the m-subsets of range(n) in
    lexicographic order: the number of subsets the pivot search rejected."""
    m = len(I)
    rank = 0
    prev = -1
    for pos, i in enumerate(I):
        for j in range(prev + 1, i):
            rank += math.comb(n - j - 1, m - pos - 1)
        prev = i
    return rank


def _rank_path(name, frame, args, result):
    """numerical_rank ends in exact_integer_rank on its integer path and in
    an SVD (not spanned) otherwise."""
    exact = frame[2] == "linalg.exact_integer_rank"
    return name + (".int" if exact else ".float"), None


def _pivot_subsets(name, frame, args, result):
    """Subsets tried, exactly: the lexicographic rank of the returned I plus
    one, or every subset when the search failed (result None)."""
    n = len(args[0][0])
    tried = math.comb(n, args[1]) if result is None else lex_rank(tuple(result), n) + 1
    return name, ("subsets_tried", tried)


def _suite_name(name, frame, args, result):
    if result is None:
        return f"verify.{args[0]}", None
    return f"verify.{args[0]}", ("trials", sum(r.trials for r in result))


REFINE = {"linalg.numerical_rank": _rank_path,
          "linalg.pivot_rows": _pivot_subsets,
          "verify.run_suite": _suite_name}


class Tracer:
    def __init__(self):
        self.stats = {}    # name -> [calls, inclusive ns, self ns]
        self.counts = {}   # "name.counter" -> summed count
        self.spans = []    # (id, parent id, name, start ns, end ns)
        self._stack = []   # [span id, child ns, last child name] of open spans
        self._next_id = 0

    def wrap(self, fn, name: str):
        refine = REFINE.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [self._next_id, 0, None]
            self._next_id += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame, t0, clock(), name, refine, args, None)
                raise
            self._close(frame, t0, clock(), name, refine, args, result)
            return result

        return traced

    def _close(self, frame, t0, t1, name, refine, args, result):
        stack = self._stack
        stack.pop()
        dt = t1 - t0
        parent = -1
        if stack:
            up = stack[-1]
            up[1] += dt
            up[2] = name
            parent = up[0]
        count = None
        if refine is not None:
            name, count = refine(name, frame, args, result)
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0]
        st[0] += 1
        st[1] += dt
        st[2] += dt - frame[1]
        if count is not None:
            key = f"{name}.{count[0]}"
            self.counts[key] = self.counts.get(key, 0) + count[1]
        if len(self.spans) < SPAN_BUFFER:
            self.spans.append((frame[0], parent, name, t0, t1))

    def layer_totals(self) -> dict:
        """layer -> (calls, self ns)."""
        out = {layer: [0, 0] for layer in LAYERS}
        for name, (calls, _, self_ns) in self.stats.items():
            layer = out.setdefault(name.split(".")[0], [0, 0])
            layer[0] += calls
            layer[1] += self_ns
        return out


def _targets():
    """(name, object, kind) for every public function and dataclass defined
    in a layer module."""
    for layer in LAYERS:
        mod = importlib.import_module(f"doublejets.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if name in UNSPANNED:
                continue
            if isinstance(obj, types.FunctionType):
                yield name, obj, "function"
            elif isinstance(obj, type) and dataclasses.is_dataclass(obj):
                yield name, obj, "class"


@contextlib.contextmanager
def instrument(tracer: Tracer, extra=()):
    """Install span wrappers for the duration of the block.

    `extra` lists (span name, module, attribute) for functions outside the
    library that should be spanned too."""
    wrapped = {}
    restore = []
    for name, mod, attr in extra:
        restore.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, tracer.wrap(getattr(mod, attr), name))
    for name, obj, kind in _targets():
        if kind == "function":
            wrapped[obj] = tracer.wrap(obj, name)
        else:
            restore.append((obj, "__init__", obj.__init__))
            obj.__init__ = tracer.wrap(obj.__init__, name)
    modules = [m for key, m in list(sys.modules.items())
               if key == "doublejets" or key.startswith("doublejets.")]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                restore.append((mod, attr, obj))
                setattr(mod, attr, wrapped[obj])
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
