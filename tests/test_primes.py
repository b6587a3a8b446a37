"""nullseq.primes against sympy, which the tests import and the program's
compute path does not."""

import json
import random
from pathlib import Path

import pytest
import sympy

from nullseq.catalog import ALL_FIXTURES
from nullseq.certify import assemble_case
from nullseq.primes import factorint, isprime

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "oracle_pool.json"

# strong pseudoprimes to the first 7, 9, 12 and 13 prime bases; the last is
# where Miller-Rabin on 13 bases stops and Baillie-PSW takes over
PSEUDOPRIMES = (3215031751, 3825123056546413051, 318665857834031151167461,
                3317044064679887385961981)


class TestIsprime:
    def test_every_n_below_200000(self):
        assert [n for n in range(-2, 200_000) if isprime(n) != sympy.isprime(n)] == []

    @pytest.mark.parametrize("n", PSEUDOPRIMES)
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not isprime(n) and not sympy.isprime(n)

    def test_around_the_baillie_psw_bound(self):
        bound = PSEUDOPRIMES[-1]
        for n in range(bound - 200, bound + 200):
            assert isprime(n) == sympy.isprime(n), n

    def test_random_65_to_128_bits(self):
        rng = random.Random(20221)
        for _ in range(400):
            n = rng.getrandbits(rng.randint(65, 128)) | 1 << 64
            assert isprime(n) == sympy.isprime(n), n
            p = sympy.nextprime(n)
            assert isprime(p), p
            assert not isprime(p * sympy.nextprime(p)), p


def _factorint_agrees(n):
    assert factorint(n) == sympy.factorint(n), n
    assert list(factorint(n)) == sorted(factorint(n))


class TestFactorint:
    def test_catalog_coefficients(self):
        for fx in ALL_FIXTURES:
            _factorint_agrees(abs(fx.coefficient))

    def test_oracle_pool(self):
        # the pool holds no coefficient: its integers, and every coefficient
        # of its cases' certificates as prove finds them, whose recorded
        # factorizations come from factorint
        with open(POOL, encoding="utf-8") as fh:
            jobs = json.load(fh)["jobs"]
        for job in jobs:
            _factorint_agrees(job["p"])
            _factorint_agrees(job["subsets"])
        for k, t in sorted({(job["k"], job["t"]) for job in jobs}):
            for cert in assemble_case(k, t).certificates():
                for entry in cert.entries:
                    primes = dict(entry.factorization.primes)
                    assert primes == sympy.factorint(abs(entry.coefficient)), entry

    def test_seeded_products_of_primes(self):
        rng = random.Random(7)
        for _ in range(150):
            n = 1
            for _ in range(rng.randint(1, 4)):
                p = sympy.nextprime(rng.randrange(1 << rng.randint(1, 26)))
                n *= p ** rng.randint(1, 3)
            _factorint_agrees(n)
        # two ~2**30 primes, which rho alone must split
        _factorint_agrees(sympy.nextprime(1 << 30) * sympy.nextprime(3 << 29))

    def test_small_and_bad_input(self):
        assert factorint(1) == {}
        assert factorint(2) == {2: 1}
        for n in (0, -6):
            with pytest.raises(ValueError):
                factorint(n)
