"""From an arrangement to a one-coefficient proof.

Target groups are Z_p x Z_t (p prime, coprime to t).  Fix how many elements
the subset takes from each Z_t-coset — the *type* lam — and an *arrangement*
a saying which coset each position draws from.  Write x_i for the unknown
first coordinate at position i.  Two things can collide along the walk of
partial sums:

* two equal-coset elements coincide            -> factor (x_j - x_i);
* two partial sums agree in the quotient Z_t   -> factor (x_{i+1}+...+x_j).

The product of all those factors is nonzero exactly on the choices of
first coordinates that make the arrangement a sequencing.  If some monomial
below the per-position ceiling ("bounding monomial") has a nonzero integer
coefficient, then for every large enough prime p values can be chosen inside
the cosets -- so EVERY subset of that type is sequenceable.  The coefficient
is the certificate; this demo computes one end to end for lam = (3, 2).

Run:  python demos/02_polynomial_certificates.py
"""

from nullseq.certify import certify_type, exceptional_primes
from nullseq.engine import multiply_factors
from nullseq.factors import bounding_monomial, build_p
from nullseq.quotient import search_quotient, validate_quotient


def main():
    lam = (3, 2)
    print(f"type lam = {lam}: subsets of Z_p x Z_2 taking 3 elements from "
          "the (x, 0) coset\nand 2 from the (x, 1) coset\n")

    print("1. pick an arrangement by scanning the quotient Z_2")
    result = search_quotient(lam, limit=10)
    degree, _, a = result.candidates[0]
    qs = validate_quotient(a, lam)
    print(f"   ranked all {result.scanned} arrangements")
    print(f"   best: a = {a}, quotient walk b = {qs.b}, "
          f"induced degree {degree}\n")

    print("2. build the collision factors")
    fl = build_p(qs)
    print(f"   {len(fl.factors)} factors: {', '.join(fl.labels())}")
    print(f"   total degree {fl.degree}\n")

    print("3. expand towards one monomial below the bounding monomial")
    bound = bounding_monomial(lam, qs)
    print(f"   bound = {bound} (position i may use exponent <= bound_i)")
    target = (2, 0, 2, 1, 1)
    live = []
    poly = multiply_factors(fl, bound=bound, target=target,
                            on_step=lambda f, n: live.append(f"{fl.labels()[f]}: {n}"))
    print("   the head multiplies factors from the first, the tail from the last;")
    print(f"   live terms after each step: {', '.join(live)}")
    coeff = poly.coefficient(target)
    print(f"   coefficient of x1^2 x3^2 x4 x5  =  {coeff}\n")

    print("4. what that buys")
    exc = exceptional_primes([coeff], k=5, t=2)
    print(f"   coefficient {coeff} is nonzero and its exceptional primes are "
          f"{set(exc) or 'absent'},")
    print("   so every subset of type (3,2) in Z_p x Z_2 is sequenceable "
          "for every prime p > 5.\n")

    print("5. the library does all of the above in one call")
    cert = certify_type(lam, 2).certificate
    print(f"   certify_type{(lam, 2)} -> monomial {cert.entries[0].monomial}, "
          f"coefficient {cert.entries[0].coefficient}")
    print(f"   validity: {cert.validity_condition}")


if __name__ == "__main__":
    main()
