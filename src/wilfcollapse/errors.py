"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed text input; carries the offending position."""

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} at position {pos} in {text!r}")
        self.text = text
        self.pos = pos


class BasisViolationError(ValueError):
    """A permutation lies outside a class; names the basis element it contains."""

    def __init__(self, perm, basis_element):
        super().__init__(
            f"permutation {perm} contains basis element {basis_element}"
        )
        self.perm = perm
        self.basis_element = basis_element


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


class PoleError(ArithmeticError):
    """A quotient with a pole at t = 0, which has no power series."""


class NotInvolvedError(ValueError):
    """A factorization was requested for a word that does not involve the pattern."""


class GFMismatchError(AssertionError):
    """A generating-function expansion disagrees with the avoider counts."""

    def __init__(self, pattern, index, expected, actual):
        super().__init__(
            f"pattern {pattern}: coefficient {index} is {actual}, brute force gives {expected}"
        )
        self.pattern = pattern
        self.index = index
        self.expected = expected
        self.actual = actual
