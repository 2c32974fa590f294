"""Exception hierarchy shared across the package.

InputFormatError maps to CLI exit code 2, DegeneracyError (walls, orbit
mismatches, failed genericity) to exit code 3.
"""


class StarweylError(Exception):
    pass


class InputFormatError(StarweylError):
    pass


class DegeneracyError(StarweylError):
    pass
