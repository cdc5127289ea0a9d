"""The character-sum identities, checked live against the exact expansion.

Progression sums of the product coefficients equal a roots-of-unity filter:
(1/N) sum over nontrivial characters psi of psi^{-1}(j) prod_a (1-psi(a))^s.
Specializing the modulus N gives a coefficient-recovery formula (N = degree+1)
and a fully closed form (N = n+1).  Everything below is evaluated twice: by
formula and by exact expansion.
"""

from qproduct import (
    ProductSpec,
    ProgressionQuery,
    character_sum_main00,
    closed_form_main1,
    divisor_coefficients_div1,
    euler_phi,
    midpoint_zero_peak1,
    progression_sum_oracle,
    ramanujan_sum,
    single_coefficient_main0,
    small_modulus_vanishing,
    tau_progression,
    trig_form_main0000,
    vanishing_predicate_main000,
)

spec = ProductSpec(s=2, n=5)
print(f"Product: (1-q)...(1-q^{spec.n}) squared, degree {spec.degree}.")
print("method          N  j  value")
for modulus, j in [(7, 0), (7, 3), (11, 4), (31, 17)]:
    query = ProgressionQuery(modulus, j)
    oracle = progression_sum_oracle(spec, query)
    char = character_sum_main00(spec, query)
    trig = trig_form_main0000(spec, query)
    print(f"  oracle      {modulus:4d} {j:2d}  {oracle}")
    print(f"  characters  {modulus:4d} {j:2d}  {char}")
    print(f"  sine/cosine {modulus:4d} {j:2d}  {trig}")

print("\nModulus degree+1 isolates single coefficients:")
small = ProductSpec(1, 3)
recovered = [single_coefficient_main0(small, j) for j in range(small.degree + 1)]
print(f"  recovered {recovered}")

print("\nModulus n+1 has a closed form: (n+1)^(s-1) times a Ramanujan sum.")
for s, n in [(1, 4), (3, 6), (2, 3)]:
    cf = [closed_form_main1(ProductSpec(s, n), j) for j in range(n + 1)]
    ora = [
        progression_sum_oracle(ProductSpec(s, n), ProgressionQuery(n + 1, j))
        for j in range(n + 1)
    ]
    prime = all((n + 1) % p for p in range(2, n + 1))
    tag = "prime modulus: totient then constant -1" if prime else \
        f"composite modulus: Ramanujan sums {[ramanujan_sum(n+1, j) for j in range(n+1)]}"
    print(f"  s={s}, n={n} ({tag})")
    print(f"    closed form {cf}")
    print(f"    oracle      {ora}")

print("\nVanishing: with s*n odd, 2j = degree (mod N) forces a zero sum.")
v = vanishing_predicate_main000(ProductSpec(1, 3), ProgressionQuery(4, 1))
zero = progression_sum_oracle(ProductSpec(1, 3), ProgressionQuery(4, 1))
print(f"  s=1, n=3, N=4, j=1: congruence holds -> {v}, oracle sum {zero}")
print("  moduli below n wipe out every residue class:",
      small_modulus_vanishing(ProductSpec(1, 6), 5))

print("\nDivisor and midpoint corollaries (odd s, odd n):")
print("  t_D, t_(deg-D) for D = deg:", divisor_coefficients_div1(ProductSpec(1, 5)))
print("  middle coefficient, n = 3 (mod 4):", midpoint_zero_peak1(ProductSpec(1, 7)))

print("\nThe 24th power feeds the tau coefficients; mod n+1 their sums close up:")
print(f"  n=2: {[tau_progression(2, j) for j in range(3)]}")
print(f"  expected [2*3^23, -3^23, -3^23] = {[2 * 3**23, -(3**23), -(3**23)]}")
print(f"  phi(3) = {euler_phi(3)} full-order characters drive the j = 0 value")
