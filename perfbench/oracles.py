"""Expected outputs for the benchmark workloads.

Every pin below was read off the library at the commit that introduced the
benchmark and, where one exists, cross-checked against a source that does
not run the library: classical order formulas, the q+4 class count of
SL_2(F_q), the isomorphism PSp_4(3) = Omega_5(3), and an integer-list
recomputation of the SL trace recurrence.
"""

from __future__ import annotations

import hashlib
from math import gcd

import numpy as np

# One row per census instance: family, rank, q, outer automorphism, the
# Reidemeister count, and the multiset of twisted-orbit sizes as
# {size: multiplicity}.  An inner twist permutes the twisted classes
# ([x] -> [x g]), so count and size multiset hold for every seeded inner
# part.  PSp_4(3) and Omega_5(3) are isomorphic, so their pins must agree.
CENSUS = [
    ("SL", 2, 3, "id", 7, {1: 2, 4: 4, 6: 1}),
    ("PSL", 2, 3, "id", 4, {1: 1, 3: 1, 4: 2}),
    ("SL", 2, 5, "id", 9, {1: 2, 12: 4, 20: 2, 30: 1}),
    ("SL", 2, 7, "id", 11, {1: 2, 24: 4, 42: 3, 56: 2}),
    ("SL", 2, 9, "ring=frob^1", 7, {30: 2, 120: 4, 180: 1}),
    ("PSL", 2, 9, "ring=frob^1", 5, {15: 2, 90: 1, 120: 2}),
    ("SL", 2, 11, "id", 15, {1: 2, 60: 4, 110: 5, 132: 4}),
    ("SL", 2, 13, "id", 17, {1: 2, 84: 4, 156: 6, 182: 5}),
    ("SL", 3, 3, "graph=tinv", 6, {234: 2, 936: 2, 1404: 1, 1872: 1}),
    ("PSL", 3, 3, "graph=tinv", 6, {234: 2, 936: 2, 1404: 1, 1872: 1}),
    ("SL", 2, 25, "id", 29, {1: 2, 312: 4, 600: 12, 650: 11}),
    ("SL", 2, 27, "ring=frob^1", 7, {819: 2, 3276: 4, 4914: 1}),
    ("SOodd", 2, 3, "id", 20, {1: 1, 40: 2, 45: 1, 240: 1, 270: 1, 360: 2, 480: 1, 540: 1,
                               720: 2, 1440: 1, 2160: 3, 2880: 2, 3240: 1, 5184: 1}),
    ("PSp", 2, 3, "id", 20, {1: 1, 40: 2, 45: 1, 240: 1, 270: 1, 360: 2, 480: 1, 540: 1,
                             720: 2, 1440: 1, 2160: 3, 2880: 2, 3240: 1, 5184: 1}),
    ("Sp", 2, 3, "id", 34, {1: 2, 40: 4, 90: 1, 240: 2, 360: 4, 480: 2, 540: 3, 1440: 4,
                            2160: 4, 2880: 4, 4320: 1, 5184: 2, 6480: 1}),
]

# The library cross-checks its orbit partition against the averaged
# fixed-point (Burnside) count up to this order and says so in the summary.
BURNSIDE_ORDER = 2_000

# Commands whose output tests/golden/ holds byte for byte.
GOLDEN = {
    "reidemeister_sl2_f3.csv": ["reidemeister", "--group", "SL", "--n", "2", "--q", "3", "--aut", "id"],
    "traces_p3_f_t.csv": ["traces", "--p", "3", "--f", "t", "--m-max", "2", "--r-max", "2"],
    "fixed_s_p3.csv": ["fixed-s", "--p", "3", "--f", "t"],
}

# The fixed non-unit s for f = t + a, keyed by (p, e, inverted irreducibles,
# a), for every a in 2..p-1 the seed can draw.  F_9[t] itself is missing:
# there s has degree 144, past the factorization cap, and the library
# refuses it.
FIXED_S = {
    (3, 1, "", 2): "2*t^6+2*t^4+2*t^2",
    (3, 1, "t", 2): "2*t^4+2*t^2+2 / t^2",
    (3, 1, "t,t+1", 2): "2*t^6+2*t^3+2 / t^4+2*t^3+t^2",
    (5, 1, "", 2): "4*t^20+4*t^16+4*t^12+4*t^8+4*t^4",
    (5, 1, "", 3): "4*t^20+4*t^16+4*t^12+4*t^8+4*t^4",
    (5, 1, "", 4): "4*t^20+4*t^16+4*t^12+4*t^8+4*t^4",
    (5, 1, "t", 2): "4*t^8+2*t^4+4 / t^4",
    (5, 1, "t", 3): "4*t^8+2*t^4+4 / t^4",
    (5, 1, "t", 4): "4*t^8+2*t^4+4 / t^4",
    (5, 1, "t,t+1", 2): "t^6+3*t^5+3*t^4+t^3+3*t^2+3*t+1 / t^4+2*t^3+t^2",
    (5, 1, "t,t+1", 3): "4*t^6+2*t^5+2*t^4+4*t^3+2*t^2+2*t+4 / t^4+2*t^3+t^2",
    (5, 1, "t,t+1", 4): "t^6+3*t^5+3*t^4+t^3+3*t^2+3*t+1 / t^4+2*t^3+t^2",
    (7, 1, "", 2): "6*t^42+6*t^36+6*t^30+6*t^24+6*t^18+6*t^12+6*t^6",
    (7, 1, "", 3): "6*t^42+6*t^36+6*t^30+6*t^24+6*t^18+6*t^12+6*t^6",
    (7, 1, "", 4): "6*t^42+6*t^36+6*t^30+6*t^24+6*t^18+6*t^12+6*t^6",
    (7, 1, "", 5): "6*t^42+6*t^36+6*t^30+6*t^24+6*t^18+6*t^12+6*t^6",
    (7, 1, "", 6): "6*t^42+6*t^36+6*t^30+6*t^24+6*t^18+6*t^12+6*t^6",
    (7, 1, "t", 2): "6*t^12+2*t^6+6 / t^6",
    (7, 1, "t", 3): "6*t^12+2*t^6+6 / t^6",
    (7, 1, "t", 4): "6*t^12+2*t^6+6 / t^6",
    (7, 1, "t", 5): "6*t^12+2*t^6+6 / t^6",
    (7, 1, "t", 6): "6*t^12+2*t^6+6 / t^6",
    (7, 1, "t,t+1", 2): "3*t^6+2*t^5+3*t^4+5*t^3+3*t^2+2*t+3 / t^4+2*t^3+t^2",
    (7, 1, "t,t+1", 3): "6*t^6+4*t^5+t^4+t^2+4*t+6 / t^4+2*t^3+t^2",
    (7, 1, "t,t+1", 4): "3*t^6+2*t^5+3*t^4+5*t^3+3*t^2+2*t+3 / t^4+2*t^3+t^2",
    (7, 1, "t,t+1", 5): "6*t^6+4*t^5+t^4+t^2+4*t+6 / t^4+2*t^3+t^2",
    (7, 1, "t,t+1", 6): "3*t^6+2*t^5+3*t^4+5*t^3+3*t^2+2*t+3 / t^4+2*t^3+t^2",
    (3, 2, "t", 2): "t^32+2*t^24+2*t^8+1 / t^16",
    (3, 2, "t,t+1", 2): "t^12+2*t^9+2*t^3+1 / t^8+t^7+t^5+t^4",
}

# sha256 of the stdout of every other CLI command at the default seed 0,
# keyed by task label.  Other seeds draw other inner parts and samples,
# which change the text but not the checks above.  The certificate-sweep
# rows are checked against FIXED_S and their own oracles at every seed.
SEED0_SHA256 = {
    "reidemeister SL2 q3 id": "f738aedf447c4f126766e82e71c9997664defc1d5b98a55c47a1bb136b066fe4",
    "reidemeister PSL2 q3 id": "c9f27cb32c0c0306f82884f5b7dd51138a2621cc021b4aab6cfe18f9b114574e",
    "reidemeister SL2 q5 id": "6773f507b9895366869b6260a073895764c2d6edd5f7d3b8bb47fe640031d91f",
    "reidemeister SL2 q7 id": "5117a07c9715efb0e03a06048476f7bcd6ba6bd89ae0027bc6ab76bd3eaac05a",
    "reidemeister SL2 q9 ring=frob^1": "4648a4f20eabb237401f384f37ca4aab6d721e26e2e20aae5295099612720ff5",
    "reidemeister PSL2 q9 ring=frob^1": "22b77cd133ad7207f2cb683e14d3ac69da3b73ac6500b5285f87bbf5fde47bb3",
    "reidemeister SL2 q11 id": "b6a26f0a10f00b7709d85db1f2ef1e01395a4aecb10e7723fab858baca82994e",
    "reidemeister SL2 q13 id": "0940f61483b999f08bd153bb99b78594a8cfab77b17dc2510cb3b89c140cdae6",
    "reidemeister SL3 q3 graph=tinv": "b707eea025d6cdc936649d0ff9845eb652828b612882e73abd5e7b0a0fc32c95",
    "reidemeister PSL3 q3 graph=tinv": "ed36485b790b72cc07fb71b3c65cd545c44c277126c956e482bf748942903326",
    "reidemeister SL2 q25 id": "f44bd418c73fd80fcb73511bef325d84c89f5c270ca25bc33eac1a87db2fa79e",
    "reidemeister SL2 q27 ring=frob^1": "bed0a97e642326b41268ae8a98ea0d9ea1ccca6869fe32a986021d4cdec75071",
    "reidemeister SOodd2 q3 id": "5a372a17bd0715aa04195e78c017d3760d2947784a1be493f46d4ab607a07c6a",
    "reidemeister PSp2 q3 id": "8f33d9c8d2fe6da8247807da3aca8da92535a8f0df9ae5e4ecad7d96db9935d4",
    "reidemeister Sp2 q3 id": "e30cd44bbeca2e6fef490abb4235f26df839b804aeed19a3e7912c04ebc322dc",
    "aut-compose SL3 q3": "d27d074756cfc84cf51fd42496fbd8258b71d62b688d315fdb798c74a122e53b",
    "aut-compose SOeven3 q3": "1379eda698cb6acc03d344cb4f88d21b392c1ca6e056bc0aeed7f3ee97c66b96",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def group_order(family: str, n: int, q: int) -> int:
    """Order of the finite group a census command enumerates."""
    if family in ("SL", "PSL"):
        order = q ** (n * (n - 1) // 2)
        for i in range(2, n + 1):
            order *= q ** i - 1
        return order // gcd(n, q - 1) if family == "PSL" else order
    # Sp_2n, and its quotients PSp_2n and Omega_{2n+1} (isomorphic to PSp_2n
    # for odd q) by the center of order 2
    order = q ** (n * n)
    for i in range(1, n + 1):
        order *= q ** (2 * i) - 1
    return order if family == "Sp" else order // 2


def sl_trace_coeffs(s_coeffs, p: int, m: int, r: int):
    """Coefficients of tr(x_m^r) over F_p, from T_0 = 2, T_1 = 2 - u^2 and
    T_k = (2 - u^2) T_(k-1) - T_(k-2) with u = s^m, on integer arrays."""

    def trim(a):
        a = np.asarray(a, dtype=np.int64) % p
        nz = np.nonzero(a)[0]
        return a[: nz[-1] + 1] if nz.size else a[:0]

    def sub(a, b):
        out = np.zeros(max(a.size, b.size), dtype=np.int64)
        out[: a.size] += a
        out[: b.size] -= b
        return trim(out)

    def mul(a, b):
        return trim(np.convolve(a, b)) if a.size and b.size else a[:0]

    u = trim([1])
    s = trim(s_coeffs)
    for _ in range(m):
        u = mul(u, s)
    two = trim([2])
    coef = sub(two, mul(u, u))
    prev2, prev = two, coef
    for _ in range(2, r + 1):
        prev2, prev = prev, sub(mul(coef, prev), prev2)
    return [int(c) for c in prev]
