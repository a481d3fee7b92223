#!/usr/bin/env python3
# Twisted conjugacy: orbits, Reidemeister counts, witnesses, power reduction.

from chevtwist import (
    Fq,
    GroupAut,
    GroupCtx,
    GroupKind,
    are_twisted_conjugate,
    enumerate_group,
    power_reduction_check,
    quotient_count_comparison,
    reidemeister_count,
    twist_step,
    twisted_orbits,
)

F3, F9 = Fq(3), Fq(3, 2)
sl2 = GroupCtx(GroupKind.sl(2), F3)
psl2 = GroupCtx(GroupKind.psl(2), F3)

# with the identity automorphism, twisted classes are conjugacy classes
res = reidemeister_count(sl2, GroupAut.identity(sl2))
print("conjugacy classes of SL_2(F_3):", res.count, "| methods:", res.method)
print("classes of PSL_2(F_3):", reidemeister_count(psl2, GroupAut.identity(psl2)).count)

# the quotient can only merge classes, never split them
print("classes upstairs and in the quotient:", quotient_count_comparison(sl2, psl2, GroupAut.identity(sl2)))

# a genuinely twisted example: entrywise Frobenius on SL_2(F_9)
sl2_9 = GroupCtx(GroupKind.sl(2), F9)
frob = GroupAut(sl2_9, ring=1)
rep = twisted_orbits(sl2_9, frob)
print("Frobenius-twisted orbit sizes on SL_2(F_9):", sorted(rep.orbit_sizes))

# decision procedure with verified witnesses
e12 = sl2.elem([[1, 1], [0, 1]])
e21_2 = sl2.elem([[1, 0], [2, 1]])
ok, w = are_twisted_conjugate(e12, e21_2, GroupAut.identity(sl2))
print("e12(1) conjugate to e21(2):", ok, "| witness verified:",
      twist_step(w, e12, GroupAut.identity(sl2)) == e21_2)

# elements fixed by the automorphism: one twisted class forces plainly
# conjugate squares (the automorphism has order 2 here)
fixed = [g for g in enumerate_group(sl2_9).elements() if frob(g) == g]
x, y = fixed[1], fixed[2]
ok, _ = are_twisted_conjugate(x, y, frob)
if ok:
    print("fixed pair is twisted conjugate; squares conjugate:",
          power_reduction_check(x, y, frob, 2))
else:
    print("sampled fixed pair lies in different twisted classes")
