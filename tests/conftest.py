from pathlib import Path

import pytest
from hypothesis import settings, strategies as st

from ncpoint.freealg import parse_algebra
from ncpoint.colorlie import parse_colorlie
from ncpoint.scalars import Rational

# every hypothesis test draws the same examples on every run and keeps no
# example database, so tier-1 is deterministic; each test sets its count
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "ncpoint" / "fixtures"

# a color Lie algebra with n_L = 3 on two generators
THREE_STEP_CL = """\
rank: 2
basis: x:(1,0)
basis: y:(0,1)
basis: z:(1,1)
basis: w:(2,1)
basis: v:(1,2)
omega: 1 2
omega: 1/2 1
bracket: [x,y] = z
bracket: [x,z] = w
bracket: [y,z] = v
"""

# the Heisenberg-type algebra with omega = [[1, t], [1/t, 1]], over Q(t)
HEISENBERG_T_CL = """\
rank: 2
basis: x:(1,0)
basis: y:(0,1)
basis: z:(1,1)
omega: 1 t
omega: 1/t 1
bracket: [x,y] = z
"""


def rationals(**bounds):
    """Hypothesis' fractions within the bounds, as the package's Rationals."""
    return st.fractions(**bounds).map(lambda f: Rational(f.numerator, f.denominator))


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def load_algebra(name: str):
    return parse_algebra(fixture_path(name).read_text())


def load_colorlie(name: str):
    return parse_colorlie(fixture_path(name).read_text())


@pytest.fixture
def downup_4_4():
    return load_algebra("downup_4_-4.alg")


@pytest.fixture
def downup_2_1():
    return load_algebra("downup_2_-1.alg")


@pytest.fixture
def quantum_plane():
    return load_algebra("quantum_plane_2.alg")


@pytest.fixture
def commutative_plane():
    return load_algebra("commutative_plane.alg")


@pytest.fixture
def free_2():
    return load_algebra("free_2.alg")


@pytest.fixture
def d_2_1():
    return load_algebra("d_2_1.alg")
