"""When the degree is unhelpful: pin variables to zero.

The certificate needs a nonzero coefficient on a monomial *below* the
per-position ceiling whose degree equals the product's degree.  Two ways an
arrangement can make that hard:

* the induced degree exceeds the ceiling's total — no candidate monomial
  exists at all;
* the gap between degree and ceiling leaves a huge expansion to search.

The remedy for both: *pin* some positions to the constant 0.  Every
collision factor touching a pinned position loses that variable (a
difference factor drops entirely; a window factor shrinks), lowering the
degree without giving up the conclusion — an ordering of the remaining
positions extends to one using the pinned zeros.  Pinned positions must not
be adjacent in the arrangement.

Run:  python demos/03_fixing_variables.py
"""

from nullseq.engine import multiply_factors
from nullseq.factors import bounding_monomial, build_p, choose_fixes
from nullseq.quotient import bounding_degree, search_quotient, validate_quotient


def main():
    print("== an arrangement that cannot work unfixed ==\n")
    res = search_quotient((3, 2), limit=10)
    ceiling = bounding_degree((3, 2))
    degree, a = next((d, a) for d, _, a in res.candidates if d > ceiling)
    print(f"type (3,2), a = {a}: degree {degree} exceeds the "
          f"ceiling total {ceiling};")
    print("no candidate monomial exists -- pin a position or pick another "
          "arrangement.\n")

    print("== the pinned certificate for type (5, 2) ==\n")
    lam = (5, 2)
    a = (0, 0, 1, 0, 0, 0, 1)
    qs = validate_quotient(a, lam)
    fl = build_p(qs)
    bound = bounding_monomial(lam, qs)
    print(f"a = {a}")
    print(f"unfixed: degree {fl.degree}, ceiling {bound} "
          f"(total {sum(bound)})")

    fixes = (3, 6)
    fixed = build_p(qs, fixes)
    fbound = bounding_monomial(lam, qs, fixes)
    print(f"pin positions {set(fixes)} to zero:")
    print(f"  factors {len(fl.factors)} -> {len(fixed.factors)}, "
          f"degree {fl.degree} -> {fixed.degree}")
    print(f"  ceiling becomes {fbound}: its total equals the degree, so "
          f"exactly one\n  candidate monomial remains\n")

    target = fbound
    poly = multiply_factors(fixed, bound=fbound, target=target)
    print(f"coefficient of x1^3 x2^3 x4^3 x5^3  =  {poly.coefficient(target)}")
    print("nonzero -> every subset of type (5,2) in Z_p x Z_2 is "
          "sequenceable for primes p > 7\n")

    greedy = choose_fixes(fl, lam, qs)
    print(f"(left to itself the greedy planner pins {tuple(sorted(greedy))} "
          f"here -- several valid plans exist)")


if __name__ == "__main__":
    main()
