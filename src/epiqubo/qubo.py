"""Quadratic binary objectives for the two-step mobility-ban problem.

The decision bits are "keep open" flags ``z = 1 - u``: minimizing the
quadratic form over z picks which locations to isolate.  Two builders
compile the same objective:

* a numeric builder that reconstructs the multilinear quadratic by
  interpolation at ``1 + M + M(M-1)/2`` probe controls: the z = 0 probe is
  simulated, and every other probe is evaluated only at the locations it
  opens, as perturbed step-2 entries, so a build takes O(M^2) work,
* closed-form builders for SIS and SIR that expand the two-step dynamics
  analytically and must agree with the numeric one to float precision.

Both keep the additive constant, so objective values equal simulated costs
exactly, not just up to a shared offset.  Exactness rests on the
interpolation identities, on tests that compare objective values with
simulated costs over every assignment (acceptance criterion 1), and on a
property that checks every numeric coefficient against two-step costs in
exact rational arithmetic.

A problem stores one dense symmetric coupling matrix with a zero diagonal;
the builders, the text importer and every solver read and write that array.
The text format is written and read ``_TEXT_CHUNK_LINES`` lines at a time, so
its memory follows the M x M matrix, not the length of the text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .epinet import (
    EpidemicParams,
    EpidemicState,
    LocationNetwork,
    ModelKind,
    _local_update,
    as_bits,
    batch_infection_cost,
    check_state,
    cost,
    simulate,
    step_arrays,
)

__all__ = [
    "QuboProblem",
    "QuboParseError",
    "evaluate",
    "fix_persistent",
    "restrict",
    "to_control",
    "from_control",
    "BUILDER_NAMES",
    "build_qubo",
    "build_qubo_numeric",
    "build_qubo_sis_analytic",
    "build_qubo_sir_analytic",
    "export_qubo",
    "import_qubo",
]

HORIZON = 2  # the compilation below is exact only for a two-step lookahead
# A bit is fixed only when its marginal clears zero by this share of its row's
# coefficient mass, so roundoff in the sums can never fix a tied bit.
PERSISTENCY_RTOL = 1e-12
# Lines of QUBO text formatted or parsed at a time.  On an M = 300 study QUBO
# (45,151 lines, 2-vCPU host), chunks of 2^8 to 2^14 lines took the same time
# within noise; the peak traced allocation of ``import_qubo`` grew from 1.9 MB
# (2^10) to 18 MB (2^14), since each line held splits into three token strings.
_TEXT_CHUNK_LINES = 1 << 10


class QuboParseError(ValueError):
    """Malformed QUBO text; the message carries the offending line number."""


@dataclass(frozen=True)
class QuboProblem:
    """Minimize ``offset + linear @ z + z @ coupling @ z / 2`` over binary z.

    ``coupling`` is a dense symmetric M x M matrix with a zero diagonal;
    entry ``[i, j] = [j, i]`` is the coefficient of ``z_i z_j``.  Signed
    zeros are stored as +0.0, so equal problems have equal coupling bytes.
    """

    linear: np.ndarray
    coupling: np.ndarray | None = None
    offset: float = 0.0

    def __post_init__(self) -> None:
        lin = np.asarray(self.linear, dtype=np.float64)
        if lin.ndim != 1:
            raise ValueError("linear coefficients must be a 1-D vector")
        if not np.all(np.isfinite(lin)) or not np.isfinite(self.offset):
            raise ValueError("QUBO coefficients must be finite")
        m = lin.shape[0]
        if self.coupling is None:
            s = np.zeros((m, m))
        else:
            s = np.asarray(self.coupling, dtype=np.float64)
            if s.shape != (m, m):
                raise ValueError(f"coupling must be {m}x{m}, got shape {s.shape}")
            if not np.all(np.isfinite(s)):
                raise ValueError("coupling coefficients must be finite")
            if np.any(s.diagonal() != 0.0):
                raise ValueError("coupling diagonal must be zero")
            if not np.array_equal(s, s.T):
                raise ValueError("coupling must be symmetric")
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "coupling", s + 0.0)  # copy; -0.0 becomes +0.0
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def m(self) -> int:
        return self.linear.shape[0]


def evaluate(q: QuboProblem, z) -> float:
    """Objective value at a binary assignment, offset included."""
    zz = as_bits(z, q.m).astype(np.float64)
    return float(q.offset + q.linear @ zz + 0.5 * zz @ q.coupling @ zz)


def batch_evaluate(q: QuboProblem, bits: np.ndarray) -> np.ndarray:
    """Objective values for a (B, M) batch of assignments (unvalidated)."""
    zf = bits.astype(np.float64)
    return q.offset + zf @ q.linear + 0.5 * np.einsum("bi,bi->b", zf @ q.coupling, zf)


def fix_persistent(q: QuboProblem) -> np.ndarray:
    """Bits that take the same value in every minimizer: 0 or 1, else -1.

    First-order (roof-duality) persistency, sound for couplings of any sign.
    Setting ``z_i = 1`` changes the objective by ``linear_i + C[i] @ z``.
    With the bits fixed so far held, that change is at least ``base_i +
    min(C, 0)[i] @ free`` and at most ``base_i + max(C, 0)[i] @ free``, where
    ``base = linear + C @ ones``.  A lower bound above zero fixes ``z_i = 0``;
    an upper bound below zero fixes ``z_i = 1``.  Rounds repeat until one
    fixes nothing.  Both tests need a margin of ``PERSISTENCY_RTOL`` times
    the row's coefficient mass, so a tie leaves the bit free.
    """
    c = q.coupling
    neg = np.minimum(c, 0.0)
    pos = np.maximum(c, 0.0)
    tol = PERSISTENCY_RTOL * (np.abs(q.linear) + np.abs(c).sum(axis=1))
    fixed = np.full(q.m, -1, dtype=np.int8)
    while True:
        free = fixed < 0
        base = q.linear + c @ (fixed == 1).astype(np.float64)
        freef = free.astype(np.float64)
        to_zero = free & (base + neg @ freef > tol)
        to_one = free & (base + pos @ freef < -tol)
        if not (to_zero.any() or to_one.any()):
            return fixed
        fixed[to_zero] = 0
        fixed[to_one] = 1


def restrict(q: QuboProblem, fixed) -> QuboProblem:
    """The objective over the free bits (``fixed < 0``) of ``fix_persistent``.

    Bits fixed to 1 fold into the offset and the free bits' linear terms,
    so ``evaluate(restrict(q, fixed), z[free])`` equals ``evaluate(q, z)``
    for every ``z`` that agrees with ``fixed``.
    """
    fixed = np.asarray(fixed)
    if fixed.shape != (q.m,) or not np.isin(fixed, (-1, 0, 1)).all():
        raise ValueError(f"fixed must hold one of -1, 0, 1 for each of the {q.m} variables")
    free = np.flatnonzero(fixed < 0)
    ones = np.flatnonzero(fixed == 1)
    c = q.coupling
    offset = q.offset + q.linear[ones].sum() + 0.5 * c[np.ix_(ones, ones)].sum()
    linear = q.linear[free] + c[np.ix_(free, ones)].sum(axis=1)
    return QuboProblem(linear, c[np.ix_(free, free)], offset)


def to_control(z) -> np.ndarray:
    """Map keep-open bits to isolation flags: ``u = 1 - z``."""
    arr = np.asarray(z)
    return as_bits(1 - arr, arr.shape[0])


def from_control(u) -> np.ndarray:
    """Map isolation flags to keep-open bits: ``z = 1 - u``."""
    arr = np.asarray(u)
    return as_bits(1 - arr, arr.shape[0])


# -- builders ----------------------------------------------------------------


def build_qubo_numeric(
    net: LocationNetwork,
    params: EpidemicParams,
    state0: EpidemicState,
    gamma: float,
) -> QuboProblem:
    """Reconstruct the two-step cost as a quadratic in z by interpolation.

    Over binary vectors the cost is multilinear of degree two, so it is
    pinned exactly by its values at z = 0, the unit vectors, and the pair
    vectors: ``offset = g(0)``, ``P_i = g(e_i) - g(0)``,
    ``Q_ij = g(e_i + e_j) - g(e_i) - g(e_j) + g(0)``.  Only the z = 0 probe
    is simulated, for the offset; every other probe is evaluated at the
    locations it opens.

    Let ``b`` and ``o`` be the step-1 states with every location isolated
    and with every location open, and ``d = o - b``.  After step 1 the probe
    that opens S holds ``o`` on S and ``b`` elsewhere (bit for bit, since
    ``x + 0.0 * v == x``).  In step 2 a location outside S is isolated, so
    it evolves as under z = 0, and those entries cancel in ``P_i`` and
    ``Q_ij``.  At i in S the force is ``o_i + (W b)_i + sum_{k in S} W_ik
    d_k``, self-weight ``W_ii`` included.  What is left is ``P_i = d_i +
    [x2_i({i}) - x2_i({})]`` and ``Q_ij = [x2_i({i, j}) - x2_i({i})] +
    [x2_j({i, j}) - x2_j({j})]``, each bracket the step-2 local update of
    one perturbed entry: O(M^2) work for all the probes.  The isolation-cost
    term is linear and added in closed form, which keeps the degenerate
    cases (no infected, no edges) exact rather than merely close.

    The compiled dynamics are the unclamped ones; under ``force`` the
    controller clamps the state after it applies a step.  Works for both SIS
    and SIR; the model kind is taken from ``params``.  A start state that
    ``check_state`` refuses for that kind (wrong location count, a removed
    compartment that does not fit the model, counts above the populations)
    is refused before any array work.
    """
    check_state(state0, net, params.kind)
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    m = net.m
    n = net.populations
    w = net.weights
    x0, y0 = state0.infected, state0.removed
    shut, y1 = step_arrays(x0, y0, np.ones(m), net, params)
    open_, _ = step_arrays(x0, y0, np.zeros(m), net, params)
    d = open_ - shut
    alone = open_ + w @ shut + w.diagonal() * d  # step-2 force at i, only i open
    x2_alone = _local_update(alone.copy(), open_, y1, n, params)
    x2_shut = _local_update(shut.copy(), shut, y1, n, params)  # under z = 0 the force is b
    linear = d + (x2_alone - x2_shut) - gamma * n
    g0 = batch_infection_cost(net, params, state0, np.ones((1, m)), HORIZON)[0]
    offset = float(g0 + gamma * n.sum())

    # entry [i, j] first holds the bracket x2_i({i, j}) - x2_i({i}), then the
    # sum with its transpose (numpy copies the overlapping operand once)
    coupling = w * d
    coupling += alone[:, None]
    y_col = None if y1 is None else y1[:, None]
    _local_update(coupling, open_[:, None], y_col, n[:, None], params)
    coupling -= x2_alone[:, None]
    coupling += coupling.T
    np.fill_diagonal(coupling, 0.0)  # only pairs i != j couple
    return QuboProblem(linear, coupling, offset)


def _build_analytic(
    net: LocationNetwork,
    params: EpidemicParams,
    state0: EpidemicState,
    gamma: float,
    kind: ModelKind,
) -> QuboProblem:
    """Closed-form expansion of the two-step cost in the keep-open bits.

    Writing ``x(1) = a + c z`` per location (a: control-free part, c: the
    inflow term gated by z) and substituting into the second step, the
    binary identity z^2 = z collapses everything to a quadratic whose
    coefficients are assembled below.  ``h`` and ``sigma_next`` are the
    one-step-ahead susceptible fractions with and without the local inflow.
    The compiled dynamics are the unclamped ones; under ``force`` the
    controller clamps the state after it applies a step.  Step 1 is written
    out rather than taken from ``step_arrays``: ``c`` as the open minus the
    shut update would cancel, and lose digits the couplings keep here.
    """
    name = kind.value.upper()
    if params.kind is not kind:
        raise ValueError(f"{name} builder requires {name} parameters")
    check_state(state0, net, kind)
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    n = net.populations
    a_mat = net.weights
    lam, mu = params.lam, params.mu
    x0 = state0.infected
    y0 = state0.removed

    if y0 is None:
        frac0 = 1.0 - x0 / n
        carried = np.zeros_like(x0)
    else:
        frac0 = 1.0 - (x0 + y0) / n
        carried = y0 + mu * x0  # removed pool after one step
    inflow = a_mat @ x0
    a = x0 * (1.0 - mu + lam * frac0)
    c = lam * frac0 * inflow
    sigma_next = 1.0 - (a + carried) / n
    h = sigma_next - c / n

    # q_ij = lam h_i A_ij c_j, then coupling = q + q^T, in one (M, M) buffer;
    # numpy copies the overlapping q^T once, and the operand order of every
    # product and sum is the one of the expression written out
    coupling = lam * h[:, None] * a_mat
    coupling *= c
    linear = (
        (2.0 - mu) * c
        + lam * c * (sigma_next - (a + c) / n)
        + lam * h * (a_mat @ a)
        - gamma * n
        + coupling.diagonal()  # self-weight terms: z_i^2 = z_i
    )
    coupling += coupling.T
    np.fill_diagonal(coupling, 0.0)  # only pairs i != j couple

    # Offset from one simulation at z = 0 (every location isolated), so the
    # objective reproduces simulated costs exactly, not just their argmin.
    all_isolated = np.ones(net.m, dtype=np.int8)
    traj = simulate(net, params, state0, all_isolated, HORIZON)
    offset = cost(traj, all_isolated, gamma, net)
    return QuboProblem(linear, coupling, offset)


def build_qubo_sis_analytic(
    net: LocationNetwork,
    params: EpidemicParams,
    state0: EpidemicState,
    gamma: float,
) -> QuboProblem:
    """Closed-form SIS compilation of the two-step cost."""
    return _build_analytic(net, params, state0, gamma, ModelKind.SIS)


def build_qubo_sir_analytic(
    net: LocationNetwork,
    params: EpidemicParams,
    state0: EpidemicState,
    gamma: float,
) -> QuboProblem:
    """Closed-form SIR compilation of the two-step cost."""
    return _build_analytic(net, params, state0, gamma, ModelKind.SIR)


BUILDER_NAMES = ("analytic", "numeric")


def build_qubo(
    net: LocationNetwork,
    params: EpidemicParams,
    state0: EpidemicState,
    gamma: float,
    method: str = "analytic",
) -> QuboProblem:
    """Run the builder that ``method``, one of ``BUILDER_NAMES``, names."""
    if method not in BUILDER_NAMES:
        raise ValueError(f"unknown builder {method!r}; expected one of {BUILDER_NAMES}")
    if method == "numeric":
        return build_qubo_numeric(net, params, state0, gamma)
    if params.kind is ModelKind.SIS:
        return build_qubo_sis_analytic(net, params, state0, gamma)
    return build_qubo_sir_analytic(net, params, state0, gamma)


# -- text format ---------------------------------------------------------------


def export_qubo(q: QuboProblem) -> str:
    """Serialize to the plain-text exchange format.

    Header line ``# QUBO M=<int> offset=<decimal>``, then one line per
    nonzero entry ``<i> <j> <decimal>`` with 0-based indices: i = j holds a
    linear coefficient, i < j a pairwise one.  Diagonal entries come first
    in ascending order, then pairs lexicographically; decimals use the
    shortest round-trip representation.  Pair lines are formatted
    ``_TEXT_CHUNK_LINES`` at a time straight from the coupling matrix.
    """
    lines = [f"# QUBO M={q.m} offset={q.offset!r}"]
    lines += [f"{i} {i} {value!r}" for i, value in enumerate(q.linear.tolist()) if value != 0.0]
    rows, cols = np.nonzero(np.triu(q.coupling, 1))
    for start in range(0, len(rows), _TEXT_CHUNK_LINES):
        i = rows[start : start + _TEXT_CHUNK_LINES]
        j = cols[start : start + _TEXT_CHUNK_LINES]
        pairs = zip(i.tolist(), j.tolist(), q.coupling[i, j].tolist())
        lines.append("\n".join(f"{a} {b} {value!r}" for a, b, value in pairs))
    return "\n".join(lines) + "\n"


def _text_chunks(text: str):
    """The lines of ``text``, split as ``str.splitlines`` splits them, in
    lists cut after every ``_TEXT_CHUNK_LINES``-th ``\\n``.  A cut right
    after a ``\\n`` never falls inside a line break, so the lists join to
    ``text.splitlines()``."""
    lines = re.compile(rf"(?:[^\n]*\n){{1,{_TEXT_CHUNK_LINES}}}")
    start = 0
    while start < len(text):
        match = lines.match(text, start)
        stop = match.end() if match else len(text)
        yield text[start:stop].splitlines()
        start = stop


def _parsed(column, parse) -> tuple[list, int]:
    """``parse`` applied to each field of ``column`` up to the first one it
    refuses with ``ValueError``: returns those values and that field's index
    (``len(column)`` when every field parses)."""
    try:
        return list(map(parse, column)), len(column)
    except ValueError:
        values = []
        for raw in column:
            try:
                values.append(parse(raw))
            except ValueError:
                return values, len(values)
        raise


def _repeats(seen: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Which entries of ``key`` repeat a key marked in ``seen`` (read from
    an earlier chunk) or an earlier entry of ``key`` itself."""
    first_copy = np.zeros(len(key), dtype=bool)
    first_copy[np.unique(key, return_index=True)[1]] = True
    return seen[key] | ~first_copy


def _refuse(n: int, checks, error) -> None:
    """Raise ``error(word(k))`` for the first failing row k of ``n``, worded by
    its first failing check.  ``checks`` lists ``(bad, word)`` in check order;
    ``bad`` masks a prefix of the rows, or is the first failing row or ``n``."""
    first, word = n, None
    for bad, message in checks:
        if isinstance(bad, np.ndarray):
            bad = int(np.argmax(bad)) if bad.any() else n
        if bad < first:
            first, word = bad, message
    if word is not None:
        raise error(word(first))


def _indices(values: list[int], m: int) -> np.ndarray:
    """Parsed indices as an array; one too large for it is out of range
    anyway, so every out-of-range index then reads -1."""
    try:
        return np.array(values, dtype=np.intp)
    except OverflowError:
        return np.array([v if 0 <= v < m else -1 for v in values], dtype=np.intp)


def import_qubo(text: str) -> QuboProblem:
    """Parse the text format back into a problem; inverse of export_qubo.

    The body is read ``_TEXT_CHUNK_LINES`` lines at a time.  Each entry line
    is checked for its token count, integer indices, a coefficient, indices
    in range, ``i <= j`` and repeats; ``_refuse`` names the first failing
    line with its first failing check.  A non-finite coefficient or offset
    is named once the whole document has passed those checks.
    """
    chunks = _text_chunks(text)
    lines = next(chunks, [])
    if not lines:
        raise QuboParseError("line 1: empty document, expected QUBO header")
    header = lines[0].strip()
    parts = header.split()
    if (
        len(parts) != 4
        or parts[0] != "#"
        or parts[1] != "QUBO"
        or not parts[2].startswith("M=")
        or not parts[3].startswith("offset=")
    ):
        raise QuboParseError("line 1: expected header '# QUBO M=<int> offset=<decimal>'")
    try:
        m = int(parts[2][2:])
        offset = float(parts[3][7:])
    except ValueError as exc:
        raise QuboParseError(f"line 1: bad header value ({exc})") from exc
    if m < 0:
        raise QuboParseError("line 1: variable count must be nonnegative")
    try:
        coupling = np.zeros((m, m))
        # entries i * m + j read so far; the spare last key stands for an
        # index out of range and is never set
        seen = np.zeros(m * m + 1, dtype=bool)
    except (MemoryError, ValueError) as exc:
        raise QuboParseError(
            f"line 1: M={m} needs a {m}x{m} coupling matrix that cannot be allocated"
        ) from exc

    linear = np.zeros(m)
    nonfinite = None  # (line number, line) of the first non-finite coefficient
    first_line = 2
    for lines in chain([lines[1:]], chunks):
        split = [line.split() for line in lines]
        kept = [k for k, tokens in enumerate(split) if tokens and not tokens[0].startswith("#")]
        rows = [split[k] for k in kept]
        n = next((k for k, tokens in enumerate(rows) if len(tokens) != 3), len(rows))
        col_i, col_j, col_v = zip(*rows[:n]) if n else ((), (), ())
        ints_i, bad_i = _parsed(col_i, int)
        ints_j, bad_j = _parsed(col_j, int)
        values, bad_v = _parsed(col_v, float)
        bad_index = min(bad_i, bad_j)
        parsed = min(n, bad_index, bad_v)
        i = _indices(ints_i[:parsed], m)
        j = _indices(ints_j[:parsed], m)
        v = np.array(values[:parsed], dtype=np.float64)
        out_of_range = (i < 0) | (i >= m) | (j < 0) | (j >= m)
        key = np.where(out_of_range, m * m, i * m + j)
        def at(k, what):
            return f"line {first_line + kept[k]}: {what}"
        _refuse(len(rows), [
            (n, lambda k: at(k, f"expected '<i> <j> <value>', got {lines[kept[k]]!r}")),
            (bad_index, lambda k: at(k, f"indices must be integers, got {lines[kept[k]]!r}")),
            (bad_v, lambda k: at(k, f"bad coefficient, got {lines[kept[k]]!r}")),
            (out_of_range, lambda k: at(k, f"index out of range for M={m}")),
            (i > j, lambda k: at(k, "indices must satisfy i <= j")),
            (_repeats(seen, key), lambda k: at(k, f"duplicate entry ({i[k]}, {j[k]})")),
        ], QuboParseError)
        finite = np.isfinite(v)
        if nonfinite is None and not finite.all():
            k = kept[int(np.argmin(finite))]
            nonfinite = first_line + k, lines[k]
        seen[key] = True
        diag = i == j
        linear[i[diag]] = v[diag]
        pair_i, pair_j, pair_v = i[~diag], j[~diag], v[~diag]
        coupling[pair_i, pair_j] = pair_v
        coupling[pair_j, pair_i] = pair_v
        first_line += len(lines)
    if not np.isfinite(offset):
        raise QuboParseError(f"line 1: offset must be finite, got {offset!r}")
    if nonfinite is not None:
        lineno, raw = nonfinite
        raise QuboParseError(f"line {lineno}: coefficient must be finite, got {raw!r}")
    return QuboProblem(linear, coupling, offset)
