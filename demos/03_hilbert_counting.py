"""The brute-force side of the story: counting cosets degree by degree.

Each exponent vector of total degree d is labeled by its coset in Z^s
modulo the lattice; the number of distinct labels is the dimension of
the degree-d piece of the quotient ring.  At rank s-1 the counts stop
growing exactly when the search has met every coset of the finite
group, so the last count is the degree, with no normal form in sight.
"""

from latdeg import HomogeneousLattice, hilbert_profile, verify_degree

lat = HomogeneousLattice.from_rows([[18, -18, 0], [45, 0, -45], [0, 10, -10]])
bound = lat.regularity_upper_bound()
profile = hilbert_profile(lat, bound + 3)

print("H(d) for the torsion-90 lattice (strictly up, then flat):")
print(" ", profile.values[:12], "...")
print("  constant", profile.values[-1], "from degree", profile.stabilization_degree,
      "(proven bound:", str(bound) + ")")
print()

check = verify_degree(lat)
print("two routes, one number:")
print("  invariant factors say", check.snf_degree)
print("  coset counting says  ", check.oracle_degree)
print("  agree:", check.agree)
print()

# a rank-1 lattice in Z^3: H grows linearly, first differences constant 2
conic = HomogeneousLattice.from_rows([[-1, 2, -1]])
profile = hilbert_profile(conic, 12)
print("rank-1 lattice: H =", profile.values)
print("first differences are constant, so the counting degree is",
      profile.degree_estimate, "and the dimension estimate is",
      profile.krull_dim_estimate)
print("...but the torsion order is", conic.torsion_structure().order,
      "- the degree formula really does need rank s-1")
