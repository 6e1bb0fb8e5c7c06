"""Le numbers, polar numbers and sectional Milnor numbers of polynomial
hypersurface singularities at the origin, with exact rational arithmetic
throughout.

The package exports the functions of the README's Library section and the
types they take and return; the checkers live in lenumbers.checks.

The exported function milnor shares its name with the submodule that
defines it, and the function wins: lenumbers.milnor, and so also
`import lenumbers.milnor as m`, is the function.  The submodule's other
name, sectional, is imported from it by name, as in
`from lenumbers.milnor import sectional`, or read from
sys.modules["lenumbers.milnor"]."""

from . import checks
from .cycles import LeRecord, generic_le, lambda_numbers
from .milnor import milnor
from .poly import Frame, Polynomial, parse

__version__ = "0.1.0"

__all__ = [
    "Frame",
    "LeRecord",
    "Polynomial",
    "generic_le",
    "lambda_numbers",
    "milnor",
    "parse",
]
