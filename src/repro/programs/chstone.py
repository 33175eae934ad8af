"""The nine "real benchmarks" — CHStone / LegUp-example stand-ins.

Each builder reconstructs the structural character of its namesake at a
scale the interpreter profiles in milliseconds: the same loop shapes,
table lookups, recursion patterns and arithmetic mix, emitted in Clang
-O0 style (alloca locals, redundant loads/stores) so the optimization
headroom matches what the paper's toolchain saw.

    adpcm      — ADPCM encode: quantizer with step-size tables, clamping
    aes        — S-box substitution + xor round mixing over a state block
    blowfish   — Feistel rounds with S-box lookups and key xors
    dhrystone  — integer/string-ish mix: copies, compares, branches, calls
    gsm        — LPC analysis: windowing MACs, max-find, division
    matmul     — dense 8×8×8 integer matrix multiply
    mpeg2      — IDCT-like row/column butterflies with shifts + saturation
    qsort      — recursive quicksort over a 32-element array
    sha        — message-schedule expansion + 64 rounds of rotate/xor/add

All mains return a checksum so differential testing catches any
miscompilation end to end.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..ir import types as ty
from ..ir.module import Module
from ..ir.values import GlobalVariable
from .cbuilder import CWriter

__all__ = ["BENCHMARK_NAMES", "build", "build_all"]

BENCHMARK_NAMES = (
    "adpcm", "aes", "blowfish", "dhrystone", "gsm",
    "matmul", "mpeg2", "qsort", "sha",
)


def _table(seed: int, n: int, lo: int = 0, hi: int = 255) -> List[int]:
    """Deterministic pseudo-random table (xorshift-ish)."""
    values = []
    state = seed * 2654435761 % (2**32) or 1
    for _ in range(n):
        state ^= (state << 13) & 0xFFFFFFFF
        state ^= state >> 17
        state ^= (state << 5) & 0xFFFFFFFF
        values.append(lo + state % (hi - lo + 1))
    return values


# ---------------------------------------------------------------------------
def build_adpcm() -> Module:
    m = Module("adpcm")
    step_table = GlobalVariable("step_table", ty.array_type(ty.i32, 16),
                                [7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31],
                                is_constant=True)
    m.add_global(step_table)
    index_adj = GlobalVariable("index_adj", ty.array_type(ty.i32, 8),
                               [-1, -1, -1, -1, 2, 4, 6, 8], is_constant=True)
    m.add_global(index_adj)
    samples = GlobalVariable("samples", ty.array_type(ty.i32, 64), _table(3, 64, -128, 127))
    m.add_global(samples)

    fw = CWriter(m, "main", linkage="external")
    x = fw.b
    valpred = fw.local("valpred", init=0)
    index = fw.local("index", init=0)
    checksum = fw.local("checksum", init=0)
    with fw.loop("i", 0, 64) as i:
        sample = fw.load_elem(samples, i)
        diff = x.sub(sample, fw.load_var(valpred), "diff")
        sign = x.icmp("slt", diff, x.const(0), "sign")
        mag = x.select(sign, x.sub(x.const(0), diff), diff, "mag")
        step = fw.load_elem(step_table, fw.load_var(index))
        # 3-bit quantization: delta = min(mag*4/step, 7)
        q = x.sdiv(x.mul(mag, x.const(4)), step, "q")
        too_big = x.icmp("sgt", q, x.const(7), "big")
        delta = x.select(too_big, x.const(7), q, "delta")
        # reconstruct
        dq = x.sdiv(x.mul(delta, step), x.const(4), "dq")
        dq_signed = x.select(sign, x.sub(x.const(0), dq), dq, "dqs")
        fw.store_var(valpred, x.add(fw.load_var(valpred), dq_signed))
        # clamp valpred to [-256, 255]
        vp = fw.load_var(valpred)
        hi = x.icmp("sgt", vp, x.const(255), "hi")
        fw.store_var(valpred, x.select(hi, x.const(255), vp, "clhi"))
        vp2 = fw.load_var(valpred)
        lo = x.icmp("slt", vp2, x.const(-256), "lo")
        fw.store_var(valpred, x.select(lo, x.const(-256), vp2, "cllo"))
        # index update
        adj = fw.load_elem(index_adj, x.and_(delta, x.const(7), "d7"))
        ni = x.add(fw.load_var(index), adj, "ni")
        neg = x.icmp("slt", ni, x.const(0), "neg")
        ni2 = x.select(neg, x.const(0), ni)
        big2 = x.icmp("sgt", ni2, x.const(15), "big2")
        fw.store_var(index, x.select(big2, x.const(15), ni2))
        fw.store_var(checksum, x.add(fw.load_var(checksum),
                                     x.xor(delta, fw.load_var(valpred))))
    fw.ret(x.and_(fw.load_var(checksum), x.const(0xFFFFFF)))
    return m


# ---------------------------------------------------------------------------
def build_aes() -> Module:
    m = Module("aes")
    sbox = GlobalVariable("sbox", ty.array_type(ty.i32, 256), _table(7, 256), is_constant=True)
    m.add_global(sbox)
    key = GlobalVariable("key", ty.array_type(ty.i32, 16), _table(11, 16), is_constant=True)
    m.add_global(key)
    state_init = _table(13, 16)

    fw = CWriter(m, "main", linkage="external")
    x = fw.b
    state = fw.local_array("state", 16)
    with fw.loop("ld", 0, 16) as i:
        # initialize from an unrolled constant pattern through the sbox
        base = x.add(i, x.const(state_init[0] & 0xF))
        fw.store_elem(state, i, x.and_(x.mul(base, x.const(31)), x.const(255)))

    with fw.loop("round", 0, 10) as r:
        # SubBytes + AddRoundKey
        with fw.loop("sb", 0, 16) as i:
            v = fw.load_elem(state, i)
            sub = fw.load_elem(sbox, x.and_(v, x.const(255)))
            k = fw.load_elem(key, i)
            mixed = x.xor(sub, x.xor(k, r))
            fw.store_elem(state, i, x.and_(mixed, x.const(255)))
        # ShiftRows-ish rotation via index arithmetic
        with fw.loop("sr", 0, 4) as row:
            first = fw.load_elem(state, x.mul(row, x.const(4)))
            with fw.loop("c", 0, 3) as c:
                src = x.add(x.mul(row, x.const(4)), x.add(c, x.const(1)))
                dst = x.add(x.mul(row, x.const(4)), c)
                fw.store_elem(state, dst, fw.load_elem(state, x.and_(src, x.const(15))))
            fw.store_elem(state, x.add(x.mul(row, x.const(4)), x.const(3)), first)

    checksum = fw.local("checksum", init=0)
    with fw.loop("cs", 0, 16) as i:
        fw.store_var(checksum, x.xor(fw.load_var(checksum),
                                     x.shl(fw.load_elem(state, i), x.and_(i, x.const(3)))))
    fw.ret(x.and_(fw.load_var(checksum), x.const(0xFFFFFF)))
    return m


# ---------------------------------------------------------------------------
def build_blowfish() -> Module:
    m = Module("blowfish")
    s0 = GlobalVariable("bf_s0", ty.array_type(ty.i32, 64), _table(17, 64, 0, 65535), is_constant=True)
    s1 = GlobalVariable("bf_s1", ty.array_type(ty.i32, 64), _table(19, 64, 0, 65535), is_constant=True)
    parr = GlobalVariable("bf_p", ty.array_type(ty.i32, 18), _table(23, 18, 0, 65535), is_constant=True)
    for g in (s0, s1, parr):
        m.add_global(g)

    # F(x) = (S0[x>>6 & 63] + S1[x & 63]) ^ (x >> 3)
    f = CWriter(m, "bf_f", ty.i32, [ty.i32], ["xv"])
    xv = f.args[0]
    fb = f.b
    a = f.load_elem(s0, fb.and_(fb.lshr(xv, fb.const(6)), fb.const(63)))
    b2 = f.load_elem(s1, fb.and_(xv, fb.const(63)))
    f.ret(fb.xor(fb.add(a, b2), fb.lshr(xv, fb.const(3))))

    fw = CWriter(m, "main", linkage="external")
    x = fw.b
    left = fw.local("left", init=0x1234)
    right = fw.local("right", init=0x5678)
    checksum = fw.local("checksum", init=0)
    with fw.loop("blk", 0, 8) as blk:
        fw.store_var(left, x.xor(fw.load_var(left), blk))
        with fw.loop("round", 0, 16) as r:
            p = fw.load_elem(parr, r)
            l = x.xor(fw.load_var(left), p, "lx")
            fr = fw.call(f.func, [l], name="fr")
            new_right = x.xor(fw.load_var(right), fr)
            fw.store_var(right, l)
            fw.store_var(left, new_right)
        fw.store_var(checksum, x.add(fw.load_var(checksum),
                                     x.xor(fw.load_var(left), fw.load_var(right))))
    fw.ret(x.and_(fw.load_var(checksum), x.const(0xFFFFFF)))
    return m


# ---------------------------------------------------------------------------
def build_dhrystone() -> Module:
    m = Module("dhrystone")
    str_a = GlobalVariable("str_a", ty.array_type(ty.i32, 32), _table(29, 32, 32, 126))
    str_b = GlobalVariable("str_b", ty.array_type(ty.i32, 32), _table(31, 32, 32, 126), linkage="external")
    m.add_global(str_a)
    m.add_global(str_b)

    # proc: small integer function with branches (Dhrystone's Proc_7-ish).
    proc = CWriter(m, "proc7", ty.i32, [ty.i32, ty.i32], ["in1", "in2"])
    pa, pb = proc.args
    pbld = proc.b
    t = pbld.add(pa, pbld.const(2))
    proc.ret(pbld.add(t, pb))

    # func: character comparison (Func_1-ish).
    fcmp = CWriter(m, "func1", ty.i32, [ty.i32, ty.i32], ["c1", "c2"])
    fa, fb_ = fcmp.args
    fb2 = fcmp.b
    same = fb2.icmp("eq", fa, fb_, "same")
    fcmp.ret(fb2.select(same, fb2.const(0), fb2.const(1), "ident"))

    fw = CWriter(m, "main", linkage="external")
    x = fw.b
    int_glob = fw.local("int_glob", init=0)
    bool_glob = fw.local("bool_glob", init=0)
    ch_index = fw.local("ch_index", init=0)
    with fw.loop("run", 0, 32) as run:
        # string copy (memcpy-idiom shaped loop)
        with fw.loop("cp", 0, 32) as i:
            fw.store_elem(str_b, i, fw.load_elem(str_a, i))
        # comparisons + branches
        c1 = fw.load_elem(str_a, x.and_(run, x.const(31)))
        c2 = fw.load_elem(str_b, x.and_(x.add(run, x.const(1)), x.const(31)))
        cmp_res = fw.call(fcmp.func, [c1, c2], name="cmpres")
        fw.if_(
            x.icmp("eq", cmp_res, x.const(0), "ceq"),
            lambda: fw.store_var(int_glob, x.add(fw.load_var(int_glob), x.const(3))),
            lambda: fw.store_var(bool_glob, x.xor(fw.load_var(bool_glob), x.const(1))),
        )
        p = fw.call(proc.func, [fw.load_var(int_glob), run], name="p7")
        fw.store_var(int_glob, x.srem(p, x.const(1000)))
        fw.store_var(ch_index, x.add(fw.load_var(ch_index), x.and_(p, x.const(7))))
    total = x.add(fw.load_var(int_glob),
                  x.add(fw.load_var(bool_glob), fw.load_var(ch_index)))
    fw.ret(x.and_(total, x.const(0xFFFFFF)))
    return m


# ---------------------------------------------------------------------------
def build_gsm() -> Module:
    m = Module("gsm")
    samples = GlobalVariable("lpc_in", ty.array_type(ty.i32, 40), _table(37, 40, -512, 511))
    m.add_global(samples)

    fw = CWriter(m, "main", linkage="external")
    x = fw.b
    dmax = fw.local("dmax", init=0)
    scal = fw.local("scal", init=0)
    acc = fw.local("acc", init=0)
    # max |sample|
    with fw.loop("mx", 0, 40) as i:
        v = fw.load_elem(samples, i)
        neg = x.icmp("slt", v, x.const(0), "neg")
        av = x.select(neg, x.sub(x.const(0), v), v, "abs")
        bigger = x.icmp("sgt", av, fw.load_var(dmax), "bigger")
        fw.if_(bigger, lambda av=av: fw.store_var(dmax, av))
    # scale factor by leading zero-ish loop
    temp = fw.local("temp", init=0)
    fw.store_var(temp, fw.load_var(dmax))
    with fw.while_loop(lambda: x.icmp("sgt", fw.load_var(temp), x.const(16), "scaling")):
        fw.store_var(temp, x.ashr(fw.load_var(temp), x.const(1)))
        fw.store_var(scal, x.add(fw.load_var(scal), x.const(1)))
    # windowed autocorrelation MACs for lags 0..8
    with fw.loop("lag", 0, 9) as k:
        fw.store_var(acc, x.ashr(fw.load_var(acc), x.const(1)))
        with fw.loop("n", 0, 31) as n:
            s1 = fw.load_elem(samples, x.and_(n, x.const(31)))
            s2 = fw.load_elem(samples, x.and_(x.add(n, k), x.const(31)))
            scaled1 = x.ashr(s1, fw.load_var(scal))
            prod = x.mul(scaled1, s2, "prod")
            fw.store_var(acc, x.add(fw.load_var(acc), prod))
    denom = x.or_(fw.load_var(dmax), x.const(1), "denom")
    fw.ret(x.and_(x.sdiv(fw.load_var(acc), denom), x.const(0xFFFFFF)))
    return m


# ---------------------------------------------------------------------------
def build_matmul() -> Module:
    m = Module("matmul")
    a = GlobalVariable("mat_a", ty.array_type(ty.i32, 64), _table(41, 64, -9, 9))
    b = GlobalVariable("mat_b", ty.array_type(ty.i32, 64), _table(43, 64, -9, 9))
    c = GlobalVariable("mat_c", ty.array_type(ty.i32, 64), [0] * 64, linkage="external")
    for g in (a, b, c):
        m.add_global(g)

    fw = CWriter(m, "main", linkage="external")
    x = fw.b
    with fw.loop("i", 0, 8) as i:
        with fw.loop("j", 0, 8) as j:
            acc = fw.local(f"acc", init=0)
            fw.store_var(acc, 0)
            with fw.loop("k", 0, 8) as k:
                av = fw.load_elem(a, x.add(x.mul(i, x.const(8)), k))
                bv = fw.load_elem(b, x.add(x.mul(k, x.const(8)), j))
                fw.store_var(acc, x.add(fw.load_var(acc), x.mul(av, bv)))
            fw.store_elem(c, x.add(x.mul(i, x.const(8)), j), fw.load_var(acc))
    checksum = fw.local("checksum", init=0)
    with fw.loop("cs", 0, 64) as i:
        fw.store_var(checksum, x.add(fw.load_var(checksum), fw.load_elem(c, i)))
    fw.ret(x.and_(fw.load_var(checksum), x.const(0xFFFFFF)))
    return m


# ---------------------------------------------------------------------------
def build_mpeg2() -> Module:
    m = Module("mpeg2")
    block = GlobalVariable("idct_block", ty.array_type(ty.i32, 64), _table(47, 64, -256, 255), linkage="external")
    m.add_global(block)

    fw = CWriter(m, "main", linkage="external")
    x = fw.b
    # row-wise butterflies
    with fw.loop("row", 0, 8) as row:
        base = x.mul(row, x.const(8), "base")
        with fw.loop("p", 0, 4) as p:
            i0 = x.add(base, p)
            i1 = x.add(base, x.sub(x.const(7), p))
            v0 = fw.load_elem(block, i0)
            v1 = fw.load_elem(block, i1)
            s = x.add(v0, v1, "s")
            d = x.sub(v0, v1, "d")
            fw.store_elem(block, i0, x.ashr(x.mul(s, x.const(181)), x.const(8)))
            fw.store_elem(block, i1, x.ashr(x.mul(d, x.const(181)), x.const(8)))
    # column-wise accumulate with saturation
    with fw.loop("col", 0, 8) as col:
        acc = fw.local("colacc", init=0)
        fw.store_var(acc, 0)
        with fw.loop("r2", 0, 8) as r2:
            v = fw.load_elem(block, x.add(x.mul(r2, x.const(8)), col))
            fw.store_var(acc, x.add(fw.load_var(acc), v))
        av = fw.load_var(acc)
        hi = x.icmp("sgt", av, x.const(2047), "hi")
        clipped = x.select(hi, x.const(2047), av)
        lo = x.icmp("slt", clipped, x.const(-2048), "lo")
        clipped2 = x.select(lo, x.const(-2048), clipped)
        fw.store_elem(block, col, clipped2)
    checksum = fw.local("checksum", init=0)
    with fw.loop("cs", 0, 64) as i:
        fw.store_var(checksum, x.xor(fw.load_var(checksum), fw.load_elem(block, i)))
    fw.ret(x.and_(fw.load_var(checksum), x.const(0xFFFFFF)))
    return m


# ---------------------------------------------------------------------------
def build_qsort() -> Module:
    m = Module("qsort")
    data = GlobalVariable("qs_data", ty.array_type(ty.i32, 32), _table(53, 32, -100, 100), linkage="external")
    m.add_global(data)

    # recursive quicksort(lo, hi)
    qs = CWriter(m, "quicksort", ty.void, [ty.i32, ty.i32], ["lo", "hi"])
    lo, hi = qs.args
    qb = qs.b
    done = qb.icmp("sge", lo, hi, "done")
    ret_bb = qs.func.add_block("ret")
    work_bb = qs.func.add_block("work")
    qb.cbr(done, ret_bb, work_bb)
    qb.position_at_end(ret_bb)
    qb.ret()
    qb.position_at_end(work_bb)
    qs.b.position_at_end(work_bb)
    pivot_ptr = qs.local("pivot")
    i_ptr = qs.local("ip")
    qs.store_var(pivot_ptr, qs.load_elem(data, hi))
    qs.store_var(i_ptr, qb.sub(lo, qb.const(1)))
    # Partition loop over [lo, hi) — bounds are runtime values, so use the
    # while form rather than the constant-bound counted loop.
    jp = qs.local("jp")
    qs.store_var(jp, lo)
    with qs.while_loop(lambda: qb.icmp("slt", qs.load_var(jp), hi, "jcmp")):
        j = qs.load_var(jp)
        vj = qs.load_elem(data, j)
        less = qb.icmp("sle", vj, qs.load_var(pivot_ptr), "less")

        def swap_in():
            qs.store_var(i_ptr, qb.add(qs.load_var(i_ptr), qb.const(1)))
            i_v = qs.load_var(i_ptr)
            tmp = qs.load_elem(data, i_v)
            qs.store_elem(data, i_v, qs.load_elem(data, qs.load_var(jp)))
            qs.store_elem(data, qs.load_var(jp), tmp)

        qs.if_(less, swap_in)
        qs.store_var(jp, qb.add(qs.load_var(jp), qb.const(1)))
    # place pivot
    ip1 = qb.add(qs.load_var(i_ptr), qb.const(1), "ip1")
    tmp2 = qs.load_elem(data, ip1)
    qs.store_elem(data, ip1, qs.load_elem(data, hi))
    qs.store_elem(data, hi, tmp2)
    qb.call(qs.func, [lo, qb.sub(ip1, qb.const(1))], name="")
    qb.call(qs.func, [qb.add(ip1, qb.const(1)), hi], name="")
    qb.ret()

    fw = CWriter(m, "main", linkage="external")
    x = fw.b
    x.call(qs.func, [x.const(0), x.const(31)], name="")
    checksum = fw.local("checksum", init=0)
    with fw.loop("cs", 0, 32) as i:
        weighted = x.mul(fw.load_elem(data, i), x.add(i, x.const(1)))
        fw.store_var(checksum, x.add(fw.load_var(checksum), weighted))
    fw.ret(x.and_(fw.load_var(checksum), x.const(0xFFFFFF)))
    return m


# ---------------------------------------------------------------------------
def build_sha() -> Module:
    m = Module("sha")
    msg = GlobalVariable("sha_msg", ty.array_type(ty.i32, 16), _table(59, 16, 0, 65535), is_constant=True)
    m.add_global(msg)
    w = GlobalVariable("sha_w", ty.array_type(ty.i32, 80), [0] * 80, linkage="external")
    m.add_global(w)

    fw = CWriter(m, "main", linkage="external")
    x = fw.b

    def rotl(v, n):
        left = x.shl(v, x.const(n))
        right = x.lshr(v, x.const(32 - n))
        return x.or_(left, right, "rot")

    # schedule expansion
    with fw.loop("cp", 0, 16) as i:
        fw.store_elem(w, i, fw.load_elem(msg, i))
    with fw.loop("exp", 16, 80) as t:
        a1 = fw.load_elem(w, x.sub(t, x.const(3)))
        a2 = fw.load_elem(w, x.sub(t, x.const(8)))
        a3 = fw.load_elem(w, x.sub(t, x.const(14)))
        a4 = fw.load_elem(w, x.sub(t, x.const(16)))
        mixed = x.xor(x.xor(a1, a2), x.xor(a3, a4), "mixed")
        fw.store_elem(w, t, rotl(mixed, 1))

    h0 = fw.local("h0", init=0x67452301)
    h1 = fw.local("h1", init=0x7FFFFFFF)
    h2 = fw.local("h2", init=0x12345678)
    h3 = fw.local("h3", init=0x0FEDCBA9)
    h4 = fw.local("h4", init=0x55555555)
    with fw.loop("round", 0, 80) as t:
        a = fw.load_var(h0)
        b2 = fw.load_var(h1)
        c = fw.load_var(h2)
        d = fw.load_var(h3)
        e = fw.load_var(h4)
        # f(t): rounds 0-19 Ch, 20-39 parity, 40-59 Maj, 60-79 parity
        ch = x.or_(x.and_(b2, c), x.and_(x.xor(b2, x.const(-1)), d), "ch")
        par = x.xor(b2, x.xor(c, d), "par")
        maj = x.or_(x.or_(x.and_(b2, c), x.and_(b2, d)), x.and_(c, d), "maj")
        lt20 = x.icmp("slt", t, x.const(20), "lt20")
        lt40 = x.icmp("slt", t, x.const(40), "lt40")
        lt60 = x.icmp("slt", t, x.const(60), "lt60")
        f_mid = x.select(lt60, maj, par, "fmid")
        f_lo = x.select(lt40, par, f_mid, "flo")
        f = x.select(lt20, ch, f_lo, "f")
        wt = fw.load_elem(w, t)
        temp = x.add(rotl(a, 5), x.add(f, x.add(e, x.add(wt, x.const(0x5A827999)))))
        fw.store_var(h4, d)
        fw.store_var(h3, c)
        fw.store_var(h2, rotl(b2, 30))
        fw.store_var(h1, a)
        fw.store_var(h0, temp)
    total = x.add(fw.load_var(h0),
                  x.add(fw.load_var(h1),
                        x.add(fw.load_var(h2),
                              x.add(fw.load_var(h3), fw.load_var(h4)))))
    fw.ret(x.and_(total, x.const(0xFFFFFF)))
    return m


_BUILDERS: Dict[str, Callable[[], Module]] = {
    "adpcm": build_adpcm,
    "aes": build_aes,
    "blowfish": build_blowfish,
    "dhrystone": build_dhrystone,
    "gsm": build_gsm,
    "matmul": build_matmul,
    "mpeg2": build_mpeg2,
    "qsort": build_qsort,
    "sha": build_sha,
}


def build(name: str) -> Module:
    """Build one benchmark module by name (fresh instance every call)."""
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown benchmark {name!r}; choose from {BENCHMARK_NAMES}") from None


def build_all() -> Dict[str, Module]:
    return {name: build(name) for name in BENCHMARK_NAMES}
