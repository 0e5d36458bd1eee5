"""Truncated point modules as projective point sequences.

Conventions (pinned here and relied on by every check):

* A sequence of d points encodes a module with d+1 one-dimensional
  components, one point per action step; "module length" always means
  d + 1.
* Left modules with x_j . m_i = p^{(i+1)}_j m_{i+1}: a word acts
  rightmost letter first, so a word w = x_{j_1} ... x_{j_e} applied at
  window i contributes  c_w * prod_{t=1..e} p^{(i+t)}_{j_{e+1-t}}.
* Points are stored up to scale with the first nonzero coordinate
  normalized to 1.
* A window is read as a linear form in its last point; its value and
  the rows of an extension fiber both come from that one form.

Propagation works over Q, and over Q(t) for generic arguments: a fiber
of projective dimension one is parametrized as b0 + t b1 (plus the
point b1 itself).  A fiber is one pivot-tracking kernel call over
either field: every pivot met while eliminating over Q(t) contributes
its rational roots as special values that are re-checked numerically
over Q, and over Q there are none.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .colorlie import Bicharacter
from .freealg import NCPoly, Presentation, coefficients_use_t
from .linalg import kernel_basis_tracking_pivots
from .scalars import (
    scalar_to_str,
    denominator_poly,
    numerator_poly,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    SpecializationError,
    T,
    uses_t,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)
_RANDOM_SPAN = 99  # coordinates of a random rational point lie in [-99, 99]
# rational t-values tried, in order, to specialize a free parameter
_DESPECIALIZE_VALUES = [Fraction(v) for v in
                        [1, 2, 3, -1, -2, 5, 7, -3, 11, 13] + list(range(17, 81))]

MAX_FIBER_DIM = 4  # a walk abandons fibers of higher projective dimension
FIBER_SAMPLE_COUNT = 6  # candidates drawn from a fiber it cannot exhaust

Point = tuple


class SamplingError(RuntimeError):
    """Module sampling found nothing from any seed."""


def normalize_point(vec):
    """Scale so the first nonzero coordinate is 1; None for the zero vector."""
    vec = tuple(vec)
    lead = None
    for c in vec:
        if c:
            lead = c
            break
    if lead is None:
        return None
    return tuple(c / lead for c in vec)


def coordinate_points(k: int):
    return [normalize_point(tuple(_ONE if i == j else _ZERO for j in range(k)))
            for i in range(k)]


def random_rational_point(k: int, rng: Random) -> Point:
    while True:
        vec = tuple(Fraction(rng.randint(-_RANDOM_SPAN, _RANDOM_SPAN)) for _ in range(k))
        p = normalize_point(vec)
        if p is not None:
            return p


def generic_point(k: int) -> Point:
    """(1 : t : t^2 : ...) - a generic parameter curve through P^(k-1)."""
    coords = [_ONE]
    cur = _ONE
    for _ in range(k - 1):
        cur = cur * T
        coords.append(cur)
    return tuple(coords)


def points_use_t(pts) -> bool:
    return any(uses_t(c) for p in pts for c in p)


# ---------------------------------------------------------------------------
# multilinear window evaluation
# ---------------------------------------------------------------------------

def _window_row(f: NCPoly, pts, i: int, k: int):
    """The window of f starting at i as a linear form in its last point:
    its k coefficients, with the points before the last substituted."""
    row = [_ZERO] * k
    for w, c in f.terms.items():
        prod = c
        for step in range(len(w) - 1):
            prod = prod * pts[i + step][w[-1 - step]]
            if not prod:
                break
        if prod:
            row[w[0]] = row[w[0]] + prod
    return row


def window_value(poly: NCPoly, pts, i: int):
    """Evaluate a homogeneous polynomial's multilinear window starting at i."""
    last = pts[i + poly.degree() - 1]
    row = _window_row(poly, pts, i, len(last))
    return sum((a * b for a, b in zip(row, last) if a and b), _ZERO)


def is_truncated_point_module(pres: Presentation, pts):
    """All relation windows vanish exactly; returns (ok, first violation).

    The violation is (relation index, window start) or None.
    """
    pts = [tuple(p) for p in pts]
    for p in pts:
        if normalize_point(p) is None:
            raise ValueError("points must be nonzero")
        if len(p) != pres.num_generators:
            raise ValueError("point arity does not match the generator count")
    for ridx, f in enumerate(pres.relations):
        e = f.degree()
        for i in range(0, len(pts) - e + 1):
            if window_value(f, pts, i):
                return False, (ridx, i)
    return True, None


class ProjLinearFiber:
    """Solution subspace for the next point of a sequence."""

    def __init__(self, basis: list, special_values: list | None = None):
        self.basis = basis
        self.special_values = [] if special_values is None else special_values

    @property
    def empty(self) -> bool:
        return not self.basis

    @property
    def proj_dim(self) -> int:
        return len(self.basis) - 1  # -1 signals the empty fiber


def extension_fiber(pres: Presentation, pts) -> ProjLinearFiber:
    """Kernel of the windows ending at the new position, each read as a
    linear form in the new point: one sparse column per coordinate,
    keyed by the window's relation.

    Over Q(t) the fiber also carries the special rational t-values where
    the constraint matrix may drop rank.
    """
    k = pres.num_generators
    d1 = len(pts) + 1
    rows = [_window_row(f, pts, d1 - f.degree(), k)
            for f in pres.relations if f.degree() <= d1]
    cols = [{r: row[j] for r, row in enumerate(rows) if row[j]} for j in range(k)]
    return ProjLinearFiber(*kernel_basis_tracking_pivots(cols))


def g_action_scalars(pres: Presentation, g: NCPoly, pts):
    """The scalars lambda_{i+n} with g . m_i = lambda_{i+n} m_{i+n}."""
    n = g.degree()
    if n is None or n < 1:
        raise ValueError("g must be homogeneous of degree >= 1")
    d = len(pts)
    if d < n:
        raise ValueError(f"sequence of {d} points is too short for deg g = {n}")
    return [window_value(g, pts, i) for i in range(0, d - n + 1)]


def is_g_torsionfree_truncated(pres: Presentation, g: NCPoly, pts) -> bool:
    return all(lam for lam in g_action_scalars(pres, g, pts))


# ---------------------------------------------------------------------------
# specialization of Q(t) sequences
# ---------------------------------------------------------------------------

def _poly_lcm(a, b):
    g = poly_gcd(a, b)
    return poly_mul(a, poly_divmod(b, g)[0])


def specialize_point(p, value: Fraction):
    """Evaluate a projective point at t = value.

    Away from the poles of its coordinates this is plain evaluation.  At
    a pole the denominators are cleared first; elsewhere the two agree,
    as the lcm of the denominators is then a nonzero common scale."""
    try:
        return normalize_point(c.eval_at(value) if uses_t(c) else c for c in p)
    except SpecializationError:
        pass
    common = (_ONE,)
    for c in p:
        common = _poly_lcm(common, denominator_poly(c))
    coords = []
    for c in p:
        num = numerator_poly(c)
        extra = poly_divmod(common, denominator_poly(c))[0]
        coords.append(poly_eval(poly_mul(num, extra), value))
    return normalize_point(coords)


def specialize_points(pts, value: Fraction):
    """Specialize a whole sequence; None when any point degenerates to zero."""
    out = []
    for p in pts:
        sp = specialize_point(p, value)
        if sp is None:
            return None
        out.append(sp)
    return out


def despecialize_free_values(pts, polys_to_avoid):
    """Pick a rational t making every avoided polynomial nonzero, and
    substitute it into the sequence.  Returns None if nothing works."""
    for value in _DESPECIALIZE_VALUES:
        if any(poly_eval(poly, value) == 0 for poly in polys_to_avoid if poly):
            continue
        sp = specialize_points(pts, value)
        if sp is not None:
            return sp
    return None


# ---------------------------------------------------------------------------
# candidate generation inside a fiber
# ---------------------------------------------------------------------------

def _fiber_candidates(fiber: ProjLinearFiber, pts, generic: bool, rng: Random):
    """Candidate next points plus an exhaustiveness verdict.

    Exhaustive cases: the empty fiber, a projective point, and a pencil
    parametrized generically as b0 + t b1 together with b1 (valid when
    the sequence is still t-free).
    """
    basis = fiber.basis
    if not basis:
        return [], True
    if len(basis) == 1:
        return [normalize_point(basis[0])], True
    if generic and len(basis) == 2 and not points_use_t(pts):
        b0, b1 = basis
        pencil = normalize_point([a + T * b for a, b in zip(b0, b1)])
        return [pencil, normalize_point(b1)], True
    cands = []
    seen = set()
    for b in basis:
        p = normalize_point(b)
        if p is not None and p not in seen:
            seen.add(p)
            cands.append(p)
    tries = 0
    while len(cands) < FIBER_SAMPLE_COUNT and tries < 8 * FIBER_SAMPLE_COUNT:
        tries += 1
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in basis]
        vec = [sum((c * b[i] for c, b in zip(coeffs, basis)), _ZERO)
               for i in range(len(basis[0]))]
        p = normalize_point(vec)
        if p is not None and p not in seen:
            seen.add(p)
            cands.append(p)
    return cands, False


# ---------------------------------------------------------------------------
# torsionfree search
# ---------------------------------------------------------------------------

class TorsionfreeReport:
    def __init__(self, length: int, found: list | None = None, found_seed: str = "",
                 seeds_tried: dict | None = None, fiber_dims_seen: set | None = None,
                 special_values: set | None = None, sampled_not_exhaustive: bool = False,
                 budget_events: int = 0):
        self.length = length
        self.found = found
        self.found_seed = found_seed
        self.seeds_tried = {} if seeds_tried is None else seeds_tried
        self.fiber_dims_seen = set() if fiber_dims_seen is None else fiber_dims_seen
        self.special_values = set() if special_values is None else special_values
        self.sampled_not_exhaustive = sampled_not_exhaustive
        self.budget_events = budget_events

    def lines(self):
        out = [f"target module length: {self.length}"]
        for kind, count in self.seeds_tried.items():
            out.append(f"seeds ({kind}): {count}")
        out.append("fiber projective dimensions met: "
                   + (", ".join(str(d) for d in sorted(self.fiber_dims_seen)) or "none"))
        out.append("special t values branched numerically: "
                   + (", ".join(str(v) for v in sorted(self.special_values)) or "none"))
        if self.sampled_not_exhaustive:
            out.append("warning: a positive-dimensional fiber was sampled, not exhausted")
        if self.budget_events:
            out.append(f"budget: {self.budget_events} fibers exceeded the dimension bound")
        if self.found is None:
            out.append("result: empty (no truncated g-torsionfree module found)")
        else:
            out.append(f"result: found from seed {self.found_seed}")
        return out


def _reject_t_coefficients(polys):
    """The walks read t as the parameter of their Q(t) pencil."""
    if coefficients_use_t(polys):
        raise ValueError("point walks need coefficients over Q: t is their pencil parameter")


def _lambda_avoid_polys(pres, g, pts):
    polys = []
    for lam in g_action_scalars(pres, g, pts):
        polys.append(numerator_poly(lam))
    for p in pts:
        for c in p:
            polys.append(denominator_poly(c))
    return polys


def _walk(pres, pts, target, rng, report, *, prune, finish, generic, shuffle,
          budget):
    """Depth-first walk up the inverse system of truncated point schemes:
    extend `pts` through its extension fibers to the first sequence of
    `target` points that `finish` turns into a result.

    `prune(pts)` cuts a branch, `budget` is a one-element list of fiber
    nodes left to expand, and `shuffle` visits candidates and special
    t-values in random order.  After the candidates of a Q(t) fiber fail,
    the walk retries its special t-values, where the fiber may be larger.
    Fiber dimensions, special values and sampled fibers go to `report`.
    """
    if prune(pts):
        return None
    if len(pts) == target:
        return finish(pts)
    if budget[0] <= 0:
        return None
    budget[0] -= 1
    fiber = extension_fiber(pres, pts)
    report.fiber_dims_seen.add(fiber.proj_dim)
    if fiber.proj_dim > MAX_FIBER_DIM:
        report.budget_events += 1
        return None
    candidates, exhaustive = _fiber_candidates(fiber, pts, generic, rng)
    if not exhaustive and candidates:
        report.sampled_not_exhaustive = True
    if shuffle:
        rng.shuffle(candidates)
    for cand in candidates:
        found = _walk(pres, list(pts) + [cand], target, rng, report, prune=prune,
                      finish=finish, generic=generic, shuffle=shuffle, budget=budget)
        if found is not None:
            return found
    if fiber.special_values and points_use_t(pts):
        values = list(fiber.special_values)
        report.special_values.update(values)
        if shuffle:
            rng.shuffle(values)
        for value in values:
            specialized = specialize_points(pts, value)
            if specialized is None:
                continue
            ok, _ = is_truncated_point_module(pres, specialized)
            if not ok:
                continue
            found = _walk(pres, specialized, target, rng, report, prune=prune,
                          finish=finish, generic=generic, shuffle=shuffle,
                          budget=budget)
            if found is not None:
                return found
    return None


def _torsionfree_dfs(pres, g, pts, target, generic, rng, report):
    """Walk from one seed to a g-torsionfree sequence, in candidate order
    and without a node budget; a Q(t) leaf is specialized at a t-value
    that keeps every lambda and every coordinate denominator nonzero."""
    n = g.degree()

    def prune(pts):
        return len(pts) >= n and not is_g_torsionfree_truncated(pres, g, pts)

    def finish(pts):
        if points_use_t(pts):
            pts = despecialize_free_values(pts, _lambda_avoid_polys(pres, g, pts))
            if pts is None:
                return None
        ok, _ = is_truncated_point_module(pres, pts)
        return list(pts) if ok and is_g_torsionfree_truncated(pres, g, pts) else None

    return _walk(pres, pts, target, rng, report, prune=prune, finish=finish,
                 generic=generic, shuffle=False, budget=[float("inf")])


def torsionfree_search(pres: Presentation, g: NCPoly, length: int, *,
                       random_seeds: int = 0, generic: bool = True,
                       seed: int = 0) -> TorsionfreeReport:
    """Depth-first search for a truncated g-torsionfree module of the
    given module length, over coordinate seeds, random rational seeds,
    and optionally the generic Q(t) seed."""
    n = g.degree()
    if n is None or n < 1:
        raise ValueError("g must be homogeneous of degree >= 1")
    if length < n + 1:
        raise ValueError(f"module length must be at least n + 1 = {n + 1}")
    _reject_t_coefficients(pres.relations + (g,))
    rng = Random(seed)
    k = pres.num_generators
    target = length - 1
    report = TorsionfreeReport(length=length)
    seeds = [("coordinate", p) for p in coordinate_points(k)]
    seeds += [("random", random_rational_point(k, rng)) for _ in range(random_seeds)]
    if generic:
        seeds.append(("generic", generic_point(k)))
    counts = {}
    for kind, seed_pt in seeds:
        counts[kind] = counts.get(kind, 0) + 1
        found = _torsionfree_dfs(pres, g, [seed_pt], target, generic, rng, report)
        if found is not None:
            report.found = found
            report.found_seed = f"{kind} {format_point(seed_pt)}"
            break
    report.seeds_tried = counts
    return report


def format_point(p) -> str:
    return "(" + ":".join(scalar_to_str(c) for c in p) + ")"


def format_points(pts) -> str:
    return " ".join(format_point(p) for p in pts)


# ---------------------------------------------------------------------------
# module sampling
# ---------------------------------------------------------------------------

def _sample_dfs(pres, pts, target, rng, budget):
    """Walk from one seed to any valid sequence, in random order and
    within `budget` fiber nodes; a Q(t) leaf is specialized at a t-value
    that keeps every coordinate denominator nonzero."""

    def finish(pts):
        if not points_use_t(pts):
            return list(pts)
        concrete = despecialize_free_values(
            pts, [denominator_poly(c) for p in pts for c in p])
        if concrete is None:
            return None
        ok, _ = is_truncated_point_module(pres, concrete)
        return concrete if ok else None

    return _walk(pres, pts, target, rng, TorsionfreeReport(length=target + 1),
                 prune=lambda pts: False, finish=finish, generic=True,
                 shuffle=True, budget=budget)


def sample_modules(pres: Presentation, num_points: int, count: int, rng: Random):
    """Up to `count` valid point sequences of the given length, found by
    seeded propagation from random starting points."""
    _reject_t_coefficients(pres.relations)
    out = []
    seen = set()
    attempts = 0
    k = pres.num_generators
    while len(out) < count and attempts < 20 * count + 50:
        attempts += 1
        seed_pt = random_rational_point(k, rng)
        found = _sample_dfs(pres, [seed_pt], num_points, rng, [64])
        if found is None:
            continue
        key = tuple(tuple(p) for p in found)
        if key in seen:
            continue
        seen.add(key)
        out.append(found)
    return out


# ---------------------------------------------------------------------------
# skew point variety
# ---------------------------------------------------------------------------

def skew_point_variety(omega):
    """Maximal coordinate supports without a bad triple.

    A support S is admissible when no i < j < l in S has
    omega_ij * omega_jl != omega_il; the point variety is the union of
    the coordinate subspaces P(S) over the returned maximal supports.
    `Bicharacter` validates omega; a ValueError names what is wrong.
    """
    omega = Bicharacter(omega).omega
    k = len(omega)
    if k < 2:
        raise ValueError("need at least two generators")
    if any(omega[i][i] != 1 for i in range(k)):
        raise ValueError("omega must have unit diagonal")
    if k == 2:
        return [frozenset({0, 1})]

    def extensions(support, start):
        """Grow admissible supports by appending indices above `start`."""
        results = [frozenset(support)]
        for nxt in range(start, k):
            ok = True
            for a_pos in range(len(support)):
                for b_pos in range(a_pos + 1, len(support)):
                    i, j = support[a_pos], support[b_pos]
                    if omega[i][j] * omega[j][nxt] != omega[i][nxt]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                results.extend(extensions(support + [nxt], nxt + 1))
        return results

    all_good = set()
    for first in range(k):
        all_good.update(extensions([first], first + 1))
    all_good.add(frozenset())
    maximal = [s for s in all_good
               if not any(s < other for other in all_good)]
    return sorted(maximal, key=lambda s: (len(s), sorted(s)), reverse=True)


# ---------------------------------------------------------------------------
# point-set comparison and stabilization evidence
# ---------------------------------------------------------------------------

class CompareReport:
    def __init__(self, num_points: int, left_sampled: int = 0, right_sampled: int = 0,
                 left_only: list | None = None, right_only: list | None = None):
        self.num_points = num_points
        self.left_sampled = left_sampled
        self.right_sampled = right_sampled
        self.left_only = [] if left_only is None else left_only
        self.right_only = [] if right_only is None else right_only

    @property
    def left_only_count(self) -> int:
        return len(self.left_only)

    @property
    def right_only_count(self) -> int:
        return len(self.right_only)

    def lines(self):
        out = [f"sequence length compared: {self.num_points}",
               f"left modules sampled: {self.left_sampled}",
               f"right modules sampled: {self.right_sampled}",
               f"left-only (fail on the right): {self.left_only_count}",
               f"right-only (fail on the left): {self.right_only_count}"]
        for pts in self.left_only[:3]:
            out.append(f"  left-only example: {format_points(pts)}")
        for pts in self.right_only[:3]:
            out.append(f"  right-only example: {format_points(pts)}")
        return out


def compare_point_sets(pres_left: Presentation, pres_right: Presentation,
                       num_points: int, samples: int, rng: Random) -> CompareReport:
    """Sample truncated modules of each presentation and cross-check
    membership in the other; counts the one-sided failures."""
    if pres_left.num_generators != pres_right.num_generators:
        raise ValueError("presentations must share the generator count")
    report = CompareReport(num_points=num_points)
    left = sample_modules(pres_left, num_points, samples, rng)
    right = sample_modules(pres_right, num_points, samples, rng)
    if not left or not right:
        raise SamplingError("sampling failure: a side produced no modules")
    report.left_sampled = len(left)
    report.right_sampled = len(right)
    for pts in left:
        ok, _ = is_truncated_point_module(pres_right, pts)
        if not ok:
            report.left_only.append(pts)
    for pts in right:
        ok, _ = is_truncated_point_module(pres_left, pts)
        if not ok:
            report.right_only.append(pts)
    return report


class StabilizeReport:
    def __init__(self, per_length: dict | None = None):
        self.per_length = {} if per_length is None else per_length

    @property
    def ok(self) -> bool:
        return all(row["positive_dim"] == 0 and row["shift_failures"] == 0
                   for row in self.per_length.values())

    def lines(self):
        out = []
        for d, row in sorted(self.per_length.items()):
            out.append(
                f"length {d}: samples={row['samples']} singleton={row['singleton']} "
                f"empty={row['empty']} positive-dim={row['positive_dim']} "
                f"shift-failures={row['shift_failures']}")
        out.append("stabilization evidence: " + ("pass" if self.ok else "FAIL"))
        return out


def stabilization_check(pres: Presentation, d0: int, d_top: int, samples: int,
                        rng: Random) -> StabilizeReport:
    """For sampled sequences of each length in [d0, d_top): the extension
    fiber must be a single projective point (or empty), and the shifted
    sequence must remain a valid module."""
    if d0 < 1 or d_top <= d0:
        raise ValueError("need 1 <= d0 < D: the lengths d0..D-1 are checked")
    report = StabilizeReport()
    for d in range(d0, d_top):
        row = {"samples": 0, "singleton": 0, "empty": 0, "positive_dim": 0,
               "shift_failures": 0}
        mods = sample_modules(pres, d, samples, rng)
        if not mods:
            raise SamplingError(f"sampling failure at length {d}")
        for pts in mods:
            row["samples"] += 1
            fiber = extension_fiber(pres, pts)
            if fiber.empty:
                row["empty"] += 1
            elif fiber.proj_dim == 0:
                row["singleton"] += 1
            else:
                row["positive_dim"] += 1
            if len(pts) >= 2:
                ok, _ = is_truncated_point_module(pres, pts[1:])
                if not ok:
                    row["shift_failures"] += 1
        report.per_length[d] = row
    return report
