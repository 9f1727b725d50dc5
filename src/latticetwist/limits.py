"""Desk-scale guards shared by the enumeration-heavy operations.

Everything in this package is exact, so the only way to get into trouble
is combinatorial: factorial vertex sets, exponential patches and boxes,
unbounded closure searches.  The caps below keep those workloads at desk
scale; callers that need more should precompute offline.
"""

MAX_ENUMERATE_N = 8          # n! unit classes per residue cube
MAX_PERMUTOHEDRON_N = 8      # n! vertices
MAX_HALFSPACE_N = 6          # tile classifier (one sort of n entries per point)
MAX_PRODUCT_TILE_N = 6       # product of factorials across cycles
MAX_PATCH_N = 4              # (2r+1)^n tiles
MAX_PATCH_RADIUS = 4
MAX_CLOSURE_BUDGET = 1_000_000   # visited elements in a closure search
MAX_BOX_POINTS = 1_000_000       # integer points enumerated in a tiling box
MAX_WORD_LETTERS = 1_000_000     # letters of a word after expanding powers
MAX_VERIFY_N = 80                # generators, closures; relation checks cost ~n^3
MAX_IDENTITY_DRAWS = 16          # exponent draws, about n^2 evaluations each
MAX_WORKERS = 32                 # sampling processes in one tiling check


class BudgetExceededError(RuntimeError):
    """A requested computation exceeds the desk-scale caps above."""
