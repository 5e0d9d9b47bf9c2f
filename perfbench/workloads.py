"""The three benchmark workloads: input generation, the census pass, the
timed operation and the correctness checks.

Every workload is a list of items built from the seed in set-up and a
function that processes one item.  The library only ever receives the
generated items.  In set-up a census pass processes the items once; the
checks then gate every census output, and the timed loop cycles over the
items the library handled correctly, each of which must give its census
output again, byte for byte.

* verify-sweep: an item is one ``doublejets verify --suite S --trials 1``
  call at m = 1, 2 or 3 (n = m + 2), made in-process through ``cli.main``.
  24 calls, every suite at every m, do the work of one
  ``verify --suite all --trials 1`` call per m on a fresh verify seed: the
  acceptance traffic, cut into calls short enough for many p99 samples.
* canon-stream: an item is one JSONL value (double, semiholonomic,
  holonomic or vertical) at m = 1..3, n = m + 2, pushed through
  json.loads -> codec.decode -> canonicalization -> codec.encode ->
  json.dumps.  Rows are ordered so the sampler's pivot block leads, which
  makes the pivot search stop at its first subset.
* wide-chart: the same pipeline at n = 10..12, m = 3..4 with a number of
  leading dead rows (zero in Ui and Uo), so the pivot search walks many
  subsets before it finds the live block.

Half of every stream is integer-valued; the other half is scaled by 10**k
with small multiplicative perturbations that keep each kind's defining
constraint (Ui = Uo, W symmetric, Uo = 0).  Scaled inputs that the library
rejects stay in the pool and in every census: they are the known scale
defects, and they lower the share of the pool the library completes.  The
timed loop leaves them out, so that no timed operation fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import numpy as np

from doublejets import (actions, cli, codec, contact, core, groups, linalg,
                        sampling, verify)

TOL = 1e-9
STREAM_KINDS = ("double", "semiholonomic", "holonomic", "vertical")
SCALE_EXPONENTS = tuple(range(-4, 5))
PERTURBATION = 1e-3
# Exceptions the library documents for inputs outside its domain; any other
# exception is a defect and aborts the run.
REJECTIONS = (linalg.ChartError, ValueError, np.linalg.LinAlgError)

VERIFY_SWEEPS = 500  # 12000 calls: more than a run gets through
CANON_CYCLES = 10
WIDE_SHAPES = ((10, 3), (10, 4), (11, 3), (11, 4), (12, 3), (12, 4))


class CheckError(AssertionError):
    """An output failed a correctness gate: the run is invalid."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


class Workload:
    """Inputs from the seed, one timed operation per item, and the checks.

    process(item) is the timed call; accept(item, outcome) gates one
    outcome and returns the work it represents.  census(items) processes
    items once in set-up and returns their outcomes, their work and the
    items the library rejected; check(items, outcomes) gates the census
    outcomes and returns a summary and the items whose output counts as
    failed."""

    rejections = REJECTIONS
    check_error = CheckError

    def __init__(self, seed: int):
        self.seed = seed


# ---------------------------------------------------------------------------
# verify-sweep


class VerifySweep(Workload):
    name = "verify-sweep"
    unit = "trials"

    def generate(self) -> list:
        """One argv per call.  Sweep j runs each suite once at m = 1, 2, 3
        on verify seed seed * 100000 + j: the work of one
        `verify --suite all --trials 1` call per m, in 24 calls."""
        return [_verify_argv(suite, m, self.seed * 100000 + j)
                for j in range(VERIFY_SWEEPS) for m in (1, 2, 3)
                for suite in verify.SUITE_ORDER]

    def census(self, items):
        """The first sweep.  cli.main reports every library error as exit
        code 2, which the gate rejects, so nothing is ever rejected here."""
        outcomes = {i: self.process(items[i]) for i in range(self.pass_length(items))}
        work = {i: self.accept(items[i], text) for i, text in outcomes.items()}
        return outcomes, work, {}

    @staticmethod
    def pass_length(items) -> int:
        return 3 * len(verify.SUITE_ORDER)

    @staticmethod
    def process(argv) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        _require(code == 0, f"{argv}: exit code {code}")
        return out.getvalue()

    @staticmethod
    def accept(argv, text: str) -> int:
        """Gate one report; returns the property-trials it covers."""
        rep = json.loads(text)
        _require(rep["failures"] == 0, f"{argv}: {rep['failures']} failures")
        _require(rep["max_error"] <= TOL, f"{argv}: max_error {rep['max_error']}")
        return sum(p["trials"] for p in rep["properties"])

    def check(self, items, outcomes: dict):
        """Re-run the first sweep as `--suite all` calls: each report must
        list exactly the properties of the per-suite reports.  The digest
        of the first sweep's reports is the same on every run of a seed."""
        n_suites = len(verify.SUITE_ORDER)
        digest = hashlib.sha256()
        for k, m in enumerate((1, 2, 3)):
            parts = [outcomes[i] for i in range(k * n_suites, (k + 1) * n_suites)]
            for text in parts:
                digest.update(text.encode())
            whole = json.loads(self.process(_verify_argv("all", m, self.seed * 100000)))
            props = [p for text in parts for p in json.loads(text)["properties"]]
            _require(whole["properties"] == props,
                     f"verify --suite all at m={m} differs from its per-suite reports")
        return {"report_sha256_first_sweep": digest.hexdigest()}, {}


def _verify_argv(suite: str, m: int, seed: int) -> list:
    return ["verify", "--suite", suite, "--m", str(m), "--n", str(m + 2),
            "--trials", "1", "--seed", str(seed)]


# ---------------------------------------------------------------------------
# stream workloads


def _dead_rows_first(dv: core.DoubleVelocity, kind: str, rng, dead: int):
    """Reorder rows so the sampler's pivot block leads, then prepend `dead`
    rows with no plane component (zero in Ui and Uo)."""
    n, m = dv.dims.n, dv.dims.m
    mats = [dv.Ui, dv.Uo] if kind == "double" else [dv.Ui]
    I = linalg.pivot_rows(mats, m)
    order = list(I) + list(linalg.complement(I, n))
    u, Ui, Uo, W = dv.u[order], dv.Ui[order], dv.Uo[order], dv.W[order]
    if dead:
        Wd = sampling.ints(rng, dead, m, m)
        if kind == "holonomic":
            Wd = Wd + linalg.swap_last2(Wd)
        u = np.concatenate([sampling.ints(rng, dead), u])
        Ui = np.concatenate([np.zeros((dead, m)), Ui])
        Uo = np.concatenate([np.zeros((dead, m)), Uo])
        W = np.concatenate([Wd, W])
    return u, Ui, Uo, W


def _scale(kind: str, rng, k: int, u, Ui, Uo, W):
    """Multiply by 10**k with relative perturbations of size PERTURBATION.

    Multiplicative noise keeps zeros (dead rows, Uo = 0) exactly zero;
    Ui = Uo and W symmetric are restored after perturbing."""
    c = 10.0 ** k

    def jitter(a):
        return c * a * (1.0 + PERTURBATION * rng.standard_normal(a.shape))

    u, Ui, Uo, W = jitter(u), jitter(Ui), jitter(Uo), jitter(W)
    if kind in ("semiholonomic", "holonomic"):
        Uo = Ui
    if kind == "holonomic":
        W = linalg.sym_part(W)
    return u, Ui, Uo, W


def _stream_value(seed: int, tag: int, index: int, spec):
    kind, m, n, dead, k = spec
    rng = sampling.rng_from(seed, tag, index)
    dv = sampling.generate(kind, m, n - dead, rng)
    u, Ui, Uo, W = _dead_rows_first(dv, kind, rng, dead)
    if k is not None:
        u, Ui, Uo, W = _scale(kind, rng, k, u, Ui, Uo, W)
    value = core.DoubleVelocity(core.Dims(m, n), u, Ui, Uo, W)
    return json.dumps(codec.encode(value))


def decode_line(line: str):
    return codec.decode(json.loads(line))


def encode_output(out) -> str:
    if isinstance(out, tuple):
        return json.dumps({"holonomic": codec.encode(out[0]),
                           "curvature": codec.encode(out[1])})
    return json.dumps(codec.encode(out))


# The codec spans of the stream pipeline include the JSON text.
CODEC_SPANS = (("codec.decode", "decode_line"), ("codec.encode", "encode_output"))


class Stream(Workload):
    unit = "values"
    tag = 0

    def specs(self) -> list:
        raise NotImplementedError

    def generate(self) -> list:
        """Items are (kind, json line, scale exponent or None)."""
        return [(spec[0], _stream_value(self.seed, self.tag, i, spec), spec[4])
                for i, spec in enumerate(self.specs())]

    def census(self, items):
        """Every item once; a rejection is recorded by exception type."""
        outcomes, rejected = {}, {}
        for i, item in enumerate(items):
            try:
                outcomes[i] = self.process(item)
            except REJECTIONS as exc:
                rejected[i] = type(exc).__name__
        return outcomes, dict.fromkeys(outcomes, 1), rejected

    pass_length = len

    @staticmethod
    def process(item) -> str:
        kind, line, _ = item
        dv = decode_line(line)
        if kind == "vertical":
            out = contact.vertical_quotient(dv)
        else:
            out = contact.double_contact_of(dv)
            if kind != "double":
                out = contact.decompose_contact(out)
        return encode_output(out)

    @staticmethod
    def accept(item, outcome) -> int:
        return 1

    def check(self, items, outcomes: dict):
        """Check every successful census output against its input.

        Returns a summary and the items whose output is a valid chart of
        the input's orbit but not the canonical one: on a scaled input that
        is the known scale-dependent pivot decision (det_scale), counted as
        not completed.  Every other mismatch is a CheckError."""
        leading = 0
        moved = {}
        for i, text in sorted(outcomes.items()):
            kind, line, k = items[i]
            try:
                I = self._check_one(kind, decode_line(line), json.loads(text), k)
            except REJECTIONS as exc:
                raise CheckError(f"item {i}: check raised {exc!r}") from exc
            if I is None:
                _require(k is not None, f"item {i}: canonical chart moved on an "
                                        f"integer-valued input")
                moved[i] = "chart-moved"
            else:
                leading += I != tuple(range(len(I)))
        canonical = len(outcomes) - len(moved)
        return {"canonical_outputs": canonical, "non_leading_pivots": leading,
                "non_leading_share": leading / max(1, canonical)}, moved

    @staticmethod
    def _check_one(kind, dv, obj, k):
        """The output's pivot set, or None when it is not the canonical one."""
        if kind == "vertical":
            # The twin builds group elements from the inverse pivot block,
            # which DET_FLOOR rejects at large scales, so it runs on the
            # unscaled value; V scales as 1 / c.
            q = codec.decode(obj)
            c = 10.0 ** (k or 0)
            twin = contact.vertical_quotient_by_action(core.DoubleVelocity(
                dv.dims, dv.u / c, dv.Ui / c, dv.Uo / c, dv.W / c))
            if q.I != twin.I:
                return None
            _require(linalg.close(q.V, twin.V / c, TOL)
                     and linalg.close(q.base.P, twin.base.P, TOL)
                     and linalg.close(q.base.u, twin.base.u * c, TOL),
                     "vertical quotient disagrees with its twin")
            return q.I
        if kind == "double":
            d = codec.decode(obj)
        else:
            h = codec.decode(obj["holonomic"])
            d = contact.double_contact_of(dv)
            back = contact.affine_add_contact(h, codec.decode(obj["curvature"]))
            _require(back.I == d.I and _same_chart(back, d),
                     "decomposition does not recombine")
        rep = contact.representative(d)
        _require(_on_orbit(dv, rep, list(d.I)), "canonical form is not on the input's orbit")
        again = contact.double_contact_of(rep)
        if again.I != d.I:
            return None
        _require(_same_chart(again, d), "re-canonicalization changed X/Y/Z")
        return d.I


def _on_orbit(dv, rep, rows) -> bool:
    """True when the representative, moved by the element read off the
    input's pivot rows, gives back the input.

    The representative has identity pivot blocks and zero pivot rows of W,
    so that element is (Aphi, Asigma, B) = (Uo[I], Ui[I], W[I]).  Each
    entry is compared within TOL of the largest of 1, the input entry and
    the sum of the magnitudes of the terms that form it, which bounds the
    roundoff of the products however much they cancel."""
    As, Ap, B = dv.Ui[rows], dv.Uo[rows], dv.W[rows]
    back = actions.act_P_double(rep, groups.PrincipalJetElement(len(rows), Ap, As, B))
    a = np.abs
    size = {"u": a(dv.u), "Ui": a(rep.Ui) @ a(As), "Uo": a(rep.Uo) @ a(Ap),
            "W": (np.einsum("ahk,hi,kj->aij", a(rep.W), a(As), a(Ap))
                  + np.einsum("ah,hij->aij", a(rep.Ui), a(B)))}
    for f, terms in size.items():
        x, y = getattr(back, f), getattr(dv, f)
        if not np.all(a(x - y) <= TOL * np.maximum(1.0, np.maximum(a(y), terms))):
            return False
    return True


def _same_chart(a, b) -> bool:
    return all(linalg.close(getattr(a, f), getattr(b, f), TOL) for f in "uXYZ")


class CanonStream(Stream):
    """Every (kind, m, scale class) combination once per cycle; half the
    classes are integer-valued, the other half one per exponent in -4..4."""

    name = "canon-stream"
    tag = 1

    def specs(self) -> list:
        scale_classes = [None] * len(SCALE_EXPONENTS) + list(SCALE_EXPONENTS)
        cycle = [(kind, m, m + 2, 0, k) for kind in STREAM_KINDS
                 for m in (1, 2, 3) for k in scale_classes]
        return cycle * CANON_CYCLES


class WideChart(Stream):
    """Every (kind, n, m, dead rows) combination once integer-valued and
    once scaled; the scaled values take the exponents -4..4 in turn."""

    name = "wide-chart"
    tag = 2

    def specs(self) -> list:
        combos = [(kind, m, n, dead) for kind in STREAM_KINDS
                  for n, m in WIDE_SHAPES for dead in range(n - m)]
        return [spec for j, combo in enumerate(combos)
                for spec in ((*combo, None),
                             (*combo, SCALE_EXPONENTS[j % len(SCALE_EXPONENTS)]))]


WORKLOADS = {w.name: w for w in (VerifySweep, CanonStream, WideChart)}

