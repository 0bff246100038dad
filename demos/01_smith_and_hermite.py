"""Exact normal forms of integer matrices.

Walks through invariant factors (the diagonal of the Smith normal
form, computed without its unimodular transforms), the Hermite normal
form with its row transform, determinants and integer kernels, on
matrices small enough to eyeball.
"""

from math import prod

from latdeg import (
    ZMatrix,
    determinant,
    hermite_normal_form,
    integer_kernel,
    smith_invariants,
)

a = ZMatrix.from_rows([[18, -18, 0], [45, 0, -45], [0, 10, -10]])
print("A =", a.to_rows())

factors = smith_invariants(a)
print("invariant factors:", factors, " rank:", len(factors))
print("det A =", determinant(a), "(singular, so the rank is below 3)")
print()

# entries grow well past 64 bits without any trouble
big = ZMatrix.from_rows(
    [
        [1001, -500, -501, 0, 0],
        [0, 3500, -3500, 0, 0],
        [0, 0, 3200, -200, -3000],
        [5000, -1000, -1000, -1001, -1999],
    ]
)
print("a 4x5 matrix with an 11-digit invariant factor:")
print("  factors:", smith_invariants(big))
square = ZMatrix.from_rows([row[:4] for row in big.to_rows()])
print("  its first four columns: |det| =", abs(determinant(square)),
      "= product of their factors", prod(smith_invariants(square)))
print()

hf = hermite_normal_form(a)
print("Hermite form (canonical basis of the row lattice):")
for i in range(hf.rank):
    print("  ", list(hf.h.row(i)))
print("transform is unimodular:", abs(determinant(hf.transform)) == 1)
print()

ones = ZMatrix.from_rows([[1], [1], [1]])
print("integer kernel of the all-ones column:", integer_kernel(ones).to_rows())
