#!/usr/bin/env python3
# The witness families and the exact certificates that separate them.

from chevtwist import (
    Fq,
    Poly,
    RatFrac,
    RingDesc,
    WitnessConfig,
    block_constraint_check,
    explicit_conjugator,
    fixed_element,
    obstruction_report,
    power_identity_check,
    trace_certificate,
    witness_sl,
    witness_sp,
)
from chevtwist.witness import FAMILY_SL, FAMILY_SP

F3 = Fq(3)
R = RingDesc(F3)
s = fixed_element(Poly.t(F3), R)
cfg = WitnessConfig(ring=R, s=s, family=FAMILY_SL, n=3)

# linear witnesses x_m: traces have degree exactly 2*r*m*deg(s), so
# different m can never share a twisted class
print("s =", s, "(degree", s.num.degree(), ")")
for m in (1, 2, 3):
    cert = trace_certificate(m, 2, cfg)
    print(f"  tr(x_{m}^2): degree {cert.deg_t} = 2*2*{m}*{s.num.degree()},",
          "leading coefficient", cert.leading_coeff)

# symplectic witnesses double the trace without changing its degree
cfg_sp = WitnessConfig(ring=R, s=s, family=FAMILY_SP, n=2)
y = witness_sp(1, cfg_sp, 2)
x = witness_sl(1, cfg_sp, 2)
print("symplectic doubling:", (y.mat ** 3).trace() == (x.mat ** 3).trace() * 2)

# orthogonal witnesses satisfy an exact power identity; the reflection B
# fixes x_s and squares to I, so (x_s B)^4 = x_s^4 adds nothing in SO_6
print("x_s^5 = x_{5s} in SO_5:", power_identity_check(s, 5, "SOodd", 2, R))
print("x_s^4 = x_{4s} in SO_6:", power_identity_check(s, 4, "SOeven", 3, R))

# the separation obstruction: conjugate witnesses force a unit ratio
R_t = RingDesc(F3, ["t"])
rep = obstruction_report(s, s ** 2, R_t)
print("x_s vs x_{s^2}:", rep.verdict, "(ratio", rep.ratio, "is not a unit)")

# whereas scaling by the square of a unit is realized by a real conjugator
c = RatFrac.t(F3)
g = explicit_conjugator(s, c, "SOodd", 2, R_t)
print("conjugator entries:", g)
print("x_{t^2 s} g = g x_s:", block_constraint_check(g, c * c * s, s))
print("x_s vs x_{t^2 s}:", obstruction_report(s, c * c * s, R_t).verdict)
