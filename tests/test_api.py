import importlib

import lenumbers

# the README's Library section, and the types its functions take and return
DOCUMENTED = {
    "generic_le",
    "lambda_numbers",
    "milnor",
    "parse",
    "Frame",
    "LeRecord",
    "Polynomial",
}


def test_public_names_are_the_documented_ones():
    assert set(lenumbers.__all__) == DOCUMENTED
    namespace = {}
    exec("from lenumbers import *", namespace)
    assert DOCUMENTED <= set(namespace)


def test_checkers_are_reached_through_their_module():
    checks = importlib.import_module("lenumbers.checks")
    assert lenumbers.checks is checks
    assert callable(checks.check_funbound)
