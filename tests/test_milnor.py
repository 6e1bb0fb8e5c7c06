import pytest

from lenumbers.milnor import SectionalProfile, milnor, sectional, teissier_chain
from lenumbers.poly import parse

from _corpus import BY_NAME


def test_milnor_known_values():
    for name in ("a2", "e6ish", "cubic3", "quad3", "a2sus", "cubic4", "triple",
                 "shear", "brieskorn"):
        m = BY_NAME[name]
        assert milnor(m.poly) == m.mu, name


def test_milnor_smooth_point_is_zero():
    assert milnor(parse("x+x^2", ("x", "y"))) == 0


def test_milnor_non_isolated_is_none():
    assert milnor(BY_NAME["bn0"].poly) is None
    assert milnor(parse("x^2*y^2", ("x", "y"))) is None


def test_milnor_input_validation():
    with pytest.raises(ValueError):
        milnor(parse("0", ("x",)))
    with pytest.raises(ValueError):
        milnor(parse("1+x", ("x",)))


def test_sectional_endpoints():
    f = parse("x^2+y^3", ("x", "y"))
    assert sectional(f, 0) == 1
    assert sectional(f, 2) == 2
    with pytest.raises(ValueError):
        sectional(f, 3)


def test_sectional_profiles():
    bn0 = BY_NAME["bn0"].poly
    assert [sectional(bn0, k) for k in (1, 2)] == [2, 4]
    tx = BY_NAME["tx"].poly
    assert [sectional(tx, k) for k in (1, 2)] == [2, 6]
    # the top slot is None exactly because the singularity is not isolated
    assert sectional(bn0, 3) is None


def test_sectional_retries_a_line_inside_the_zero_set():
    # the line y = c*x gives c*(1+c)*x^3, which vanishes for c in {0, -1};
    # such a draw is undefined, and every other line gives 2
    assert sectional(parse("x^2*y+x*y^2", ("x", "y")), 1, seed=3) == 2


def test_sectional_profile_dataclass():
    p = SectionalProfile.compute(BY_NAME["tx"].poly, seed=0)
    assert p.values == (1, 2, 6, None)
    assert p.seed == 0


def test_teissier_chain_brieskorn():
    rep = teissier_chain(BY_NAME["brieskorn"].poly, seed=0)
    assert rep.profile.values == (1, 1, 2, 8)
    assert rep.holds
    assert rep.ratios[-1] == 4


def test_teissier_chain_validation():
    with pytest.raises(ValueError):
        teissier_chain(parse("0", ("x", "y")))
    with pytest.raises(ValueError):
        teissier_chain(parse("1+x^2", ("x", "y")))
    with pytest.raises(ValueError):
        teissier_chain(parse("x+y^2", ("x", "y")))
    with pytest.raises(ValueError):
        teissier_chain(BY_NAME["bn0"].poly)
