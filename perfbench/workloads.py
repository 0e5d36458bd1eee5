"""Seeded inputs, job lists and per-job oracles for the four workloads.

Every input is written from the workload seed: algebra parameters are
drawn from small pools of signed fractions (coefficient height changes the
work, so the pools hold values of similar height), and the sampling seeds
passed to the CLI come from the same generator.  Each job carries its own
oracle: the expected exit code, lines that must appear in stdout, and
optionally a predicate over the stdout lines.  Oracles name lines, not
whole-stdout bytes, so a deliberate change to report wording elsewhere in a
report does not count as a failure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from random import Random
from typing import Callable

FIXTURES = "src/ncpoint/fixtures"

# |r| and |q| in {2, 3, 1/2}: similar height, so similar cost per seed
SIGNED_POOL = (F(2), F(-2), F(3), F(-3), F(1, 2), F(-1, 2))
ALPHA_POOL = (F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-3, 2))
BETA_POOL = (F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 3), F(3))
OMEGA_POOL = (F(1), F(2), F(1, 2), F(3), F(1, 3), F(-1), F(4))


@dataclass
class Job:
    argv: list
    code: int = 0
    lines: tuple = ()
    check: Callable[[list], str | None] | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    def verify(self, code: int, stdout: bytes) -> str | None:
        """None when the job's output meets its oracle, else the reason."""
        if code != self.code:
            return f"exit code {code}, expected {self.code}"
        text = stdout.decode()
        lines = [line.strip() for line in text.splitlines()]
        verdict = "result: pass" if self.code == 0 else "result: fail"
        if not lines or lines[-1] != verdict:
            return f"last line is not {verdict!r}"
        for want in self.lines:
            if want not in lines:
                return f"missing line {want!r}"
        return self.check(lines) if self.check else None


def fixture(name: str) -> str:
    return f"{FIXTURES}/{name}"


def poly(*terms) -> str:
    """Relation text with canonical signs: 'x*y - 2*y*x', never '- -2'."""
    out = []
    for coeff, word in terms:
        if coeff == 0:
            continue
        body = word if abs(coeff) == 1 else f"{abs(coeff)}*{word}"
        if not out:
            out.append(body if coeff > 0 else f"-{body}")
        else:
            out.append(f"{'-' if coeff < 0 else '+'} {body}")
    return " ".join(out)


def downup_relations(alpha, beta):
    return (poly((1, "x*x*y"), (-alpha, "x*y*x"), (-beta, "y*x*x")),
            poly((1, "x*y*y"), (-alpha, "y*x*y"), (-beta, "y*y*x")))


def algebra_text(names, relations) -> str:
    lines = [f"generators: {' '.join(names)}", "scalar: rational"]
    lines += [f"relation: {r}" for r in relations]
    return "\n".join(lines) + "\n"


def heisenberg_cl_text(q) -> str:
    return ("rank: 2\nbasis: x:(1,0)\nbasis: y:(0,1)\nbasis: z:(1,1)\n"
            f"omega: 1 {q}\nomega: {1 / q} 1\nbracket: [x,y] = z\n")


# -- oracles -------------------------------------------------------------

def series(degrees, top):
    """Coefficients of prod 1/(1 - t^d) up to t^top: PBW counts of U(L)
    when every basis element is even, and the Hilbert series of a
    polynomial-like algebra with generators in those degrees."""
    coeffs = [1] + [0] * top
    for d in degrees:
        for n in range(d, top + 1):
            coeffs[n] += coeffs[n - d]
    return coeffs


def inverse_series(denominator, top):
    """Coefficients of 1 / denominator(t) up to t^top, denominator[0] == 1."""
    coeffs = []
    for n in range(top + 1):
        coeffs.append((1 if n == 0 else 0) - sum(
            denominator[k] * coeffs[n - k] for k in range(1, min(n, len(denominator) - 1) + 1)))
    return coeffs


# D(v, p) (d_2_1.alg) is AS-regular of global dimension 4, with relations in
# degrees 3 and 4; its free resolution gives 1/H(t) = 1 - 2t + t^3 + t^4 - 2t^6 + t^7.
D21_DENOMINATOR = (1, -2, 0, 1, 1, 0, -2, 1)


def dims_line(values) -> str:
    return "dimensions: " + ",".join(str(v) for v in values)


def downup_dims(top):
    return [(d + 2) ** 2 // 4 for d in range(top + 1)]


def degree_lines_exactly(expected: dict):
    def check(lines):
        got = {line for line in lines if line.startswith("degree ")}
        want = {f"degree {d}: {n}" for d, n in expected.items()}
        return None if got == want else f"relation degrees {sorted(got)}, expected {sorted(want)}"
    return check


def positive_count(prefix: str):
    def check(lines):
        for line in lines:
            if line.startswith(prefix):
                value = int(line[len(prefix):].split()[0])
                return None if value > 0 else f"{prefix}{value}, expected > 0"
        return f"missing line {prefix!r}"
    return check


def has_prefix(prefix: str):
    def check(lines):
        return None if any(line.startswith(prefix) for line in lines) else f"no line {prefix!r}"
    return check


def skew_supports(omega):
    """Maximal coordinate supports without a bad triple, by brute force."""
    k = len(omega)
    good = [frozenset(s) for size in range(k + 1)
            for s in itertools.combinations(range(k), size)
            if all(omega[i][j] * omega[j][l] == omega[i][l]
                   for i, j, l in itertools.combinations(s, 3))]
    return {s for s in good if not any(s < o for o in good)}


def supports_exactly(supports):
    want = {"maximal support: {" + ",".join(str(i) for i in sorted(s)) + "}"
            for s in supports}

    def check(lines):
        got = {line for line in lines if line.startswith("maximal support:")}
        return None if got == want else f"supports {sorted(got)}, expected {sorted(want)}"
    return check


def torsionfree_empty(samples):
    return ("result: empty (no truncated g-torsionfree module found)",
            "seeds (coordinate): 2", f"seeds (random): {samples}", "seeds (generic): 1")


def compare_agree(samples):
    return (f"left modules sampled: {samples}", f"right modules sampled: {samples}",
            "left-only (fail on the right): 0", "right-only (fail on the left): 0")


def compare_left_only(samples):
    return (f"left modules sampled: {samples}", "right-only (fail on the left): 0")


def stabilize_lines(lo, hi, samples):
    return tuple(f"length {d}: samples={samples} singleton={samples} empty=0 "
                 "positive-dim=0 shift-failures=0" for d in range(lo, hi)) + (
        "check fibers singleton and shifts valid: pass",)


HEISENBERG_PASS = ("check q'-heisenberg verdict: pass",)
KOSZUL_PASS = ("check d^2 = 0: pass", "check exactness in degrees 1..cap: pass")


# -- workloads -----------------------------------------------------------

class Inputs:
    """Writes generated input files into the run's work directory."""

    def __init__(self, workdir: Path, root: Path):
        self.workdir = workdir
        self.root = root
        self.count = 0

    def write(self, stem: str, suffix: str, text: str) -> str:
        self.count += 1
        path = self.workdir / f"{self.count:02d}_{stem}{suffix}"
        path.write_text(text)
        return str(path.relative_to(self.root))


def algebra_ladder(rng: Random, inputs: Inputs):
    alpha, beta = rng.choice(ALPHA_POOL), rng.choice(BETA_POOL)
    downup = inputs.write("downup", ".alg", algebra_text("xy", downup_relations(alpha, beta)))
    a, b, c = (rng.choice(SIGNED_POOL) for _ in range(3))
    skew = inputs.write("skew3", ".alg", algebra_text("xyz", (
        poly((1, "x*y"), (-a, "y*x")), poly((1, "x*z"), (-b, "z*x")),
        poly((1, "y*z"), (-c, "z*y")))))
    return [
        Job(["hilbert", fixture("downup_4_-4.alg"), "--max-degree", "12"],
            lines=(dims_line(downup_dims(12)),)),
        Job(["minrel", fixture("downup_4_-4.alg"), "--max-degree", "12"],
            check=degree_lines_exactly({3: 2})),
        Job(["hilbert", fixture("d_2_1.alg"), "--max-degree", "11"],
            lines=(dims_line(inverse_series(D21_DENOMINATOR, 11)),)),
        Job(["minrel", fixture("d_2_1.alg"), "--max-degree", "11"],
            check=degree_lines_exactly({3: 1, 4: 1})),
        Job(["hilbert", fixture("free_2.alg"), "--max-degree", "14"],
            lines=(dims_line([2 ** d for d in range(15)]),)),
        Job(["minrel", fixture("free_2.alg"), "--max-degree", "14"],
            lines=("minimal relations: none",), check=degree_lines_exactly({})),
        Job(["hilbert", downup, "--max-degree", "10"], lines=(dims_line(downup_dims(10)),)),
        Job(["minrel", downup, "--max-degree", "9"], check=degree_lines_exactly({3: 2})),
        Job(["hilbert", skew, "--max-degree", "7"], lines=(dims_line(series([1, 1, 1], 7)),)),
        Job(["minrel", skew, "--max-degree", "6"], check=degree_lines_exactly({2: 3})),
        Job(["upresent", fixture("heisenberg3_skew.cl"), "--max-degree", "6"],
            lines=(dims_line(series([1, 1, 1, 2], 6)),)),
        Job(["upresent", fixture("heisenberg_w13.cl"), "--max-degree", "9"],
            lines=(dims_line(series([1, 1, 2], 9)),)),
    ]


def point_search(rng: Random, inputs: Inputs):
    r = rng.choice(SIGNED_POOL)
    downup = inputs.write("downup", ".alg",
                          algebra_text("xy", downup_relations(2 * r, -r * r)))
    g = poly((1, "x*y"), (-r, "y*x"))
    q = rng.choice(SIGNED_POOL)
    cl = inputs.write("heis", ".cl", heisenberg_cl_text(q))
    plane = inputs.write("plane", ".alg", algebra_text("xy", (poly((1, "x*y"), (-q, "y*x")),)))
    accept = fixture("downup_4_-4.alg")
    w2, plane2 = fixture("heisenberg_w2.cl"), fixture("quantum_plane_2.alg")

    def seed():
        return str(rng.randrange(10 ** 6))

    return [
        Job(["torsionfree", accept, "--g", "x*y-2*y*x", "--length", "4",
             "--samples", "200", "--generic", "--seed", seed()], lines=torsionfree_empty(200)),
        Job(["torsionfree", accept, "--g", "x*y-2*y*x", "--length", "3", "--seed", seed()],
            check=has_prefix("found module: ")),
        Job(["compare", w2, plane2, "--length", "4", "--samples", "150", "--seed", seed()],
            lines=compare_agree(150)),
        Job(["compare", w2, plane2, "--length", "2", "--samples", "500", "--seed", seed()],
            lines=compare_left_only(500),
            check=positive_count("left-only (fail on the right): ")),
        Job(["stabilize", accept, "--from", "3", "--to", "6", "--samples", "40",
             "--seed", seed()], lines=stabilize_lines(3, 6, 40)),
        Job(["torsionfree", downup, "--g", g, "--length", "4", "--samples", "100",
             "--seed", seed()], lines=torsionfree_empty(100)),
        Job(["torsionfree", downup, "--g", g, "--length", "3", "--seed", seed()],
            check=has_prefix("found module: ")),
        Job(["compare", cl, plane, "--length", "4", "--samples", "100", "--seed", seed()],
            lines=compare_agree(100)),
        Job(["compare", cl, plane, "--length", "2", "--samples", "100", "--seed", seed()],
            lines=compare_left_only(100),
            check=positive_count("left-only (fail on the right): ")),
        Job(["stabilize", downup, "--from", "3", "--to", "6", "--samples", "30",
             "--seed", seed()], lines=stabilize_lines(3, 6, 30)),
    ]


def koszul_color(rng: Random, inputs: Inputs):
    q = rng.choice(SIGNED_POOL)
    cl = inputs.write("heis", ".cl", heisenberg_cl_text(q))
    k = 4
    omega = [[F(1)] * k for _ in range(k)]
    for i, j in itertools.combinations(range(k), 2):
        omega[i][j] = rng.choice(OMEGA_POOL)
        omega[j][i] = 1 / omega[i][j]
    omega_arg = ";".join(",".join(str(v) for v in row) for row in omega)
    w2 = fixture("heisenberg_w2.cl")
    h3 = fixture("heisenberg3_skew.cl")
    u_lines = (f"u: {q}", f"g: {poly((1, 'x*y'), (-q, 'y*x'))}",
               "check extracted witness verifies: pass")
    return [
        Job(["koszul", w2, "--max-degree", "10"], lines=KOSZUL_PASS),
        Job(["koszul", w2, "--max-degree", "12"], lines=KOSZUL_PASS),
        Job(["koszul", h3, "--max-degree", "7"], lines=KOSZUL_PASS),
        Job(["koszul", cl, "--max-degree", "10"], lines=KOSZUL_PASS),
        Job(["koszul", fixture("bad_antisym.cl"), "--max-degree", "4"], code=1,
            lines=("check d^2 = 0: FAIL",)),
        Job(["color-check", fixture("bad_jacobi.cl")], code=1,
            lines=("check color Lie axioms: FAIL",
                   "violation: jacobi: cyclic sum fails on (x1,x2,y)")),
        Job(["color-check", cl], lines=("check color Lie axioms: pass",)),
        Job(["nl", w2], lines=("n_L: 2",)),
        Job(["nl", cl], lines=("n_L: 2",)),
        Job(["heisenberg-extract", w2], lines=("u: 2", "g: x*y - 2*y*x",
                                                "check extracted witness verifies: pass")),
        Job(["heisenberg-extract", cl], lines=u_lines),
        Job(["skew-variety", h3],
            check=supports_exactly([{1, 2}, {0, 2}, {0, 1}])),
        Job(["skew-variety", "--omega", omega_arg], check=supports_exactly(skew_supports(omega))),
    ]


def normal_sweep(rng: Random, inputs: Inputs):
    du2, d21, du4 = (fixture(n) for n in ("downup_2_-1.alg", "d_2_1.alg", "downup_4_-4.alg"))
    d21_witness = ["--g", "x*x*y + 2*x*y*x + y*x*x", "--x", "x", "--y", "x*y + y*x", "--u=-1"]
    weyl_ok = ("identity phi(X) o phi(Y) - phi(Y) o phi(X) = g o g: verified",
               "check weyl witness: pass")
    qv_ok = ("check bold-g normal identity g a = nu(a) g: pass", "check twisting system law: pass")
    jobs = [
        Job(["heisenberg", du2, "--g", "x*y - y*x", "--x", "x", "--y", "y", "--u=1"],
            lines=HEISENBERG_PASS),
        Job(["heisenberg", d21, *d21_witness], lines=HEISENBERG_PASS),
        Job(["heisenberg", d21, "--g", "x*x*y + 2*x*y*x + y*x*x", "--seed", "0"],
            lines=("found u: -1",) + HEISENBERG_PASS),
        Job(["heisenberg", fixture("commutative_plane.alg"), "--g", "x*y - y*x",
             "--x", "x", "--y", "y", "--u=1"], code=1,
            lines=("g nonzero mod ideal: FAILED",)),
        Job(["power-ids", du4, "--g", "x*y-2*y*x", "--x", "x", "--y", "y", "--u=2"],
            lines=("check power identities for r <= 5: pass",)),
        Job(["qv-check", du4, "--g", "x*y-2*y*x"], lines=qv_ok),
        Job(["weyl-witness", du4, "--g", "x*y-2*y*x", "--x", "x", "--y", "y", "--u=2"],
            lines=weyl_ok),
        Job(["weyl-witness", du2, "--g", "x*y - y*x", "--x", "x", "--y", "y", "--u=1"],
            lines=weyl_ok),
        Job(["weyl-witness", d21, *d21_witness], lines=weyl_ok),
    ]
    for r in rng.sample(SIGNED_POOL, 3):
        alg = inputs.write("downup", ".alg", algebra_text("xy", downup_relations(2 * r, -r * r)))
        witness = ["--g", poly((1, "x*y"), (-r, "y*x")), "--x", "x", "--y", "y", f"--u={r}"]
        jobs += [
            Job(["heisenberg", alg, *witness], lines=HEISENBERG_PASS),
            Job(["power-ids", alg, *witness], lines=("check power identities for r <= 5: pass",)),
            Job(["qv-check", alg, "--g", witness[1]], lines=qv_ok),
            Job(["weyl-witness", alg, *witness], lines=weyl_ok),
        ]
    return jobs


WORKLOADS = {
    "algebra-ladder": algebra_ladder,
    "point-search": point_search,
    "koszul-color": koszul_color,
    "normal-sweep": normal_sweep,
}


def build(workload: str, seed: int, workdir: Path, root: Path):
    """The workload's job list, with its generated inputs written to workdir."""
    rng = Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, Inputs(workdir, root))
