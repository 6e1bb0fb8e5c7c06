import pytest

from lenumbers.checks import check_teissier
from lenumbers.milnor import milnor, sectional
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


def test_sectional_profile_of_tx():
    tx = BY_NAME["tx"].poly
    assert [sectional(tx, k, seed=0) for k in range(4)] == [1, 2, 6, None]


def test_teissier_profile_brieskorn():
    (rep,) = check_teissier(BY_NAME["brieskorn"].poly, seed=0)
    assert not rep.skipped
    assert rep.context["profile"] == (1, 1, 2, 8)
    assert rep.holds
    assert rep.lhs == 4


def test_teissier_validation_skips():
    for f, reason in (
        (parse("0", ("x", "y")), "f must be nonzero"),
        (parse("1+x^2", ("x", "y")), "f(0) != 0"),
        (parse("x+y^2", ("x", "y")), "the origin is not a critical point of f"),
        (BY_NAME["bn0"].poly, "the singularity is not isolated"),
    ):
        (rep,) = check_teissier(f, seed=0)
        assert rep.skipped and rep.reason == reason, str(f)
        assert rep.lhs is None and rep.rhs is None
