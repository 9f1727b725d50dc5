"""Desk-scale guards shared by the enumeration-heavy operations.

Everything in this package is exact, so the only way to get into trouble
is combinatorial: factorial vertex sets, exponential patches and boxes,
unbounded closure searches.  Each cap below bounds a count of the work
itself, checked before that work starts: `MAX_PERMUTOHEDRON_N` caps n
wherever the n! permutations are listed, and the geometry counts
(exported patch rows, product-tile vertices, entries of the basis
matrix), the tiling sample count and the n entries of an identity
(`identity_perm`, `semi_identity`, `shift_vector`, `Action.cyclic`,
`Action.trivial`, `cyclic_action`) all stay within `MAX_BOX_POINTS`.
Callers that need more should precompute offline.

The caps on a size argument (`MAX_PERMUTOHEDRON_N`, `MAX_VERIFY_N`,
`MAX_CLOSURE_BUDGET`, `MAX_IDENTITY_DRAWS`, `MAX_WORKERS`) are enforced
by `twisted._as_int`, which each public reader calls with the cap as it
stands at the time of the call, and so is the n of an identity against
`MAX_BOX_POINTS`; the geometry counts are enforced by
`geometry._check_count`, and the word-letter cap by `words._check_letters`
and, on a text's symbol count before it is tokenized, by `words.parse_word`.
"""

MAX_PERMUTOHEDRON_N = 8          # n! permutations listed
MAX_CLOSURE_BUDGET = 1_000_000   # visited elements in a closure search
MAX_BOX_POINTS = 1_000_000       # vertices, rows, samples, entries in geometry;
                                 # the n of an identity
MAX_WORD_LETTERS = 1_000_000     # letters of a word after expanding powers
MAX_VERIFY_N = 80                # generators, closures; relation checks cost ~n^3;
                                 # at most 255: words and closures hold
                                 # permutations as bytes
MAX_IDENTITY_DRAWS = 16          # exponent draws, about n^2 evaluations each
MAX_WORKERS = 32                 # sampling processes in one tiling check


class BudgetExceededError(RuntimeError):
    """A requested computation exceeds the desk-scale caps above."""
