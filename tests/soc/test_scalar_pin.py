"""Pin of the scalar reference engines' exact output.

The scalar golden ISS (:class:`GoldenSimulator`), :class:`RocketCore`
(default and clean params) and :class:`BoomCore` are the semantic
reference every lane engine is compared against, so nothing else would
notice if they drifted.  This suite hashes everything they emit — every
``TraceEntry`` field, ``stop_reason``, ``instret``, ``cycles`` and the DUT
coverage bits — over bodies shaped like the real workload (seeded random
streams, a runaway loop to ``max_steps``, trap storms to ``max_traps``, a
wild jump that faults on fetch) and over one body per injected paper
behaviour, and compares against literal digests.

A change that alters any digest changes what a test means.  Refresh the
table only for such deliberate semantic changes::

    PYTHONPATH=src python tests/soc/test_scalar_pin.py
"""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines.mutations import MutationEngine
from repro.golden.simulator import GoldenSimulator
from repro.isa.assembler import Assembler
from repro.isa.encoder import encode
from repro.isa.spec import DRAM_BASE
from repro.soc.boom import BoomCore
from repro.soc.harness import build_program, preamble_words
from repro.soc.rocket import RocketCore, RocketParams


def _assemble(text: str) -> list[int]:
    """Assemble a body at its address inside a ``build_program`` image
    (preamble, then a two-word ``ra`` setup for bodies this short)."""
    base = DRAM_BASE + 4 * (len(preamble_words()) + 2)
    return Assembler(base=base).assemble(text)


def _random_bodies() -> list[list[int]]:
    bodies = []
    for seed in (0, 1, 2):
        engine = MutationEngine(seed=seed)
        bodies += [engine.random_body(24) for _ in range(6)]
    return bodies


# Executes the target once (filling its I$ line), patches it without
# FENCE.I, then executes it again: Bug1 serves the stale word.
_SMC = """
    auipc t1, 0
    addi t1, t1, 36
    lui t0, 0x138
    addi t0, t0, 0x393
    addi t3, x0, 0
    j target
patch:
    sw t0, 0(t1)
    nop
    j target
target:
    addi t2, t2, 2
    bne t3, x0, done
    addi t3, x0, 1
    j patch
done:
"""

# Memory, predictor and CSR idioms the microarchitectural conditions key
# on: same-set conflicts (stride 256 B), store coalescing and forwarding,
# spill/reload, LR/SC and AMO chains, a short counted loop, a call and
# return through a spilled ra, CSR round trips and FENCE.I over dirty lines.
_MICROARCH = """
    sd a0, 0(s0)
    sd a1, 0(s0)
    ld a2, 0(s0)
    ld a3, 256(s0)
    ld a4, 512(s0)
    ld a5, 0(s0)
    sd a5, -8(sp)
    sd a5, 8(sp)
    ld a6, 8(sp)
    lr.d a7, (s0)
    sd a0, 0(s0)
    sc.d t3, a1, (s0)
    lr.d a7, (s0)
    lr.d a7, (s0)
    amoadd.d t4, a1, (s0)
    amoadd.d t5, t4, (s0)
    ld t6, 32(s0)
    ld t6, 36(s0)
    ld t6, 40(s0)
    ld t6, 44(s0)
    addi t0, x0, 3
loop:
    ld a0, 0(gp)
    slt a1, a0, t0
    addi t0, t0, -1
    bne t0, x0, loop
    csrrw x0, mscratch, a0
    csrrs a1, mscratch, x0
    csrrs a2, cycle, x0
    csrrw x0, mstatus, x0
    sd ra, 16(sp)
    jal ra, func
    j end
func:
    sd ra, 24(sp)
    ld ra, 24(sp)
    jalr x0, 0(ra)
end:
    ld ra, 16(sp)
    fence.i
    fence
"""

#: name -> list of bodies (each run through ``build_program``).
CASES = {
    "random": _random_bodies,
    "runaway_loop": lambda: [[encode("addi", rd=5, rs1=5, imm=1),
                              encode("jal", rd=0, imm=-4)]],
    "trap_storm": lambda: [[encode("ecall"), encode("jal", rd=0, imm=-4)]],
    "wild_jump": lambda: [[encode("jalr", rd=0, rs1=0, imm=0x700)]],
    "smc_no_fencei": lambda: [_assemble(_SMC)],
    "microarch": lambda: [_assemble(_MICROARCH)],
    "muldiv": lambda: [_assemble("li a0, 6\nli a1, 7\nmul a2, a0, a1\n"
                                 "div a3, a2, a1\nremu a4, a2, x0\n"
                                 "mulh a5, a2, a2\nadd a6, a2, a3")],
    "amo_rd_x0": lambda: [_assemble("amoor.d x0, a1, (s0)\n"
                                    "amoadd.w a3, a1, (s0)")],
    "jalr_x0_after_load": lambda: [_assemble("ld a0, 0(s0)\njalr x0, 0(ra)")],
    "misaligned_unmapped": lambda: [_assemble("slli t1, t1, 1\n"
                                              "addi t1, t1, 1\nld a0, 0(t1)\n"
                                              "sd a0, 0(t1)")],
}

ENGINES = {
    "golden": lambda: GoldenSimulator(),
    "rocket": lambda: RocketCore(RocketParams()),
    "rocket_clean": lambda: RocketCore(RocketParams.clean()),
    "boom": lambda: BoomCore(),
}


def _entry_fields(e) -> tuple:
    mem = e.mem
    return (e.pc, e.instr, e.priv, e.rd, e.rd_value,
            None if mem is None else (mem.addr, mem.size, mem.is_store,
                                      mem.data),
            e.trap_cause, e.trap_tval, e.csr_write)


def digest(engine: str, case: str) -> str:
    """sha256 over one engine's complete output for one case's bodies."""
    sim = ENGINES[engine]()
    h = hashlib.sha256()
    for body in CASES[case]():
        out = sim.run(build_program(body), DRAM_BASE)
        trace, report = out if isinstance(out, tuple) else (out, None)
        for entry in trace.entries:
            h.update(repr(_entry_fields(entry)).encode())
        h.update(repr((trace.stop_reason, trace.instret,
                       trace.cycles)).encode())
        if report is not None:
            h.update(repr((report.hits.to_int(), report.total_arms,
                           report.cycles)).encode())
    return h.hexdigest()


PINNED = {
    ('boom', 'amo_rd_x0'):
        'b58a902ab948dc565963fccbfb6c7f1f4dd247a30e579c959010c37dba1f267c',
    ('boom', 'jalr_x0_after_load'):
        'ddc2ce8e2ee7b55c72603cedf0734e3d48c1ae8bde84e5f09aa295870fbff9a8',
    ('boom', 'microarch'):
        '348c8154cf321e1da7ccf5a144c6a7fe9760c9a47934323a3c3c52dae31f25e1',
    ('boom', 'misaligned_unmapped'):
        'aea3ba3377c60a5f6b309f6ba432b43e41593479db61b1d0afc71809e1c73fc9',
    ('boom', 'muldiv'):
        '48f56b73b3aad3a4b3139a4a8ffb134993d1269f152ace751acb870fd7e0a49c',
    ('boom', 'random'):
        'b8c42156a4de560cd6002c6f449c148ee1a866045af5fc6e72e9f852563b313a',
    ('boom', 'runaway_loop'):
        '11822bca58e0fc0885a9362c7d5907275073fe5273752731532f35555967597d',
    ('boom', 'smc_no_fencei'):
        '4de30fe9fd63166d4681607d8725ac4635c01390bf29ebcad832a16a334312c5',
    ('boom', 'trap_storm'):
        'e0b6c7e45692d704a09457a5c5277e004e893a2c0befe2a5130a34d873498881',
    ('boom', 'wild_jump'):
        '5740d6888684921696279a371befc6f0879d861c19125aa72767a11a17c8a41d',
    ('golden', 'amo_rd_x0'):
        '18c05f7c6c241c4178e9141bc76c6849a6074b5ed666f6b564e0f80fe6aa0fc9',
    ('golden', 'jalr_x0_after_load'):
        '1f96d33ea226e8eacacfbcae1e4e793cb1b9979d14819e8dba4f79bad8fec6ad',
    ('golden', 'microarch'):
        '14cfa22024e04bd932f71b07a0caf3873ddb74473cbd997c6e3b8938b5aacd4d',
    ('golden', 'misaligned_unmapped'):
        '77485572335be148faf794f7ab6ce0de08aea2b6699547868aebd521ac316706',
    ('golden', 'muldiv'):
        'dee524a4d9feefb03829555149cc440e89eb4081ec7f187a963b487293c1f608',
    ('golden', 'random'):
        'b669e963b0db39a324fe412b62d656cc73e0f7e57f752988a4083fd56d08529d',
    ('golden', 'runaway_loop'):
        '3a1703b423b6a4196ea389a3bf8ca2f3e24bcb9e61864e5d84eebb744cdd86c6',
    ('golden', 'smc_no_fencei'):
        'b49ffa4a3fe6d69ebd87d5b40c7982b0d23597459d805ab0291fa783d47e9435',
    ('golden', 'trap_storm'):
        'c89ed79ec2493a8bb8340345198fb52af428f9821bd5ca5eb690f2fac9ab521f',
    ('golden', 'wild_jump'):
        'df48086b83c40beb0b0d58ad9a89693f8a71b4218418ef8c72a13f7638765113',
    ('rocket', 'amo_rd_x0'):
        '9ec2d430b6ea890aa82056e4d553b4782d075f7c1b8fece2029f65dfec6b21d3',
    ('rocket', 'jalr_x0_after_load'):
        '7d164d79f6936e373850e1c58adf6df92ea7001b8dc12d28c51c80850709bc2b',
    ('rocket', 'microarch'):
        'ac3dde77c4de56ec304fba5d2fd572af9b3980b3dc67c6974b16709029837531',
    ('rocket', 'misaligned_unmapped'):
        'b4b57d6dca644c07d0016a884b5ee48e0a525fc05a1b28a505f2da005cdaa262',
    ('rocket', 'muldiv'):
        'c1cfd44b0570d8567596930f3d7a1b923c627e828cd6b40c9ddeb26ce79ea249',
    ('rocket', 'random'):
        'f21e73ed295464359b0703678df702f0febcb0590cdf26bf35a7373930402250',
    ('rocket', 'runaway_loop'):
        '36c490dbc18459d6f2239cd5a4a859fe8fa30ef9639df0ed38e2ec270edd7ed7',
    ('rocket', 'smc_no_fencei'):
        'b34540c840368708afc326fca111ed95ea02cd0a1c721a85a56c15aedd6b0da2',
    ('rocket', 'trap_storm'):
        'd730f664e5e1456c46d0b422a27784460676e15fa82df0442bcaed8718ffcdfd',
    ('rocket', 'wild_jump'):
        '183633e17d2b56c72a2e96e18213d0874b8e753636705679dc16d6dff8c36d92',
    ('rocket_clean', 'amo_rd_x0'):
        '73fbf22d07ee649dad492c3d870e62455d28984afe579dae2ad564b4cb9c63e7',
    ('rocket_clean', 'jalr_x0_after_load'):
        'c78c432f5b84c5592eb9842d1ff9d7749a538da9c5d9449648fd14ddb55a4517',
    ('rocket_clean', 'microarch'):
        'd4b6053e5d2334ebedb1012aed99d39293113615707c0c70db766e397eb7152a',
    ('rocket_clean', 'misaligned_unmapped'):
        '128164a70e29a7f2975ca4aedc6575401ec27a5b3db1d4ed6d581434831d2b66',
    ('rocket_clean', 'muldiv'):
        '3daac8d269ab01bda2809734f606d1427192219ac8b56b3c96d179a4fb79dfec',
    ('rocket_clean', 'random'):
        '50701ec1a5624a6540d67060750d947daf71220c3d953c4d61dd46256fd1c735',
    ('rocket_clean', 'runaway_loop'):
        '36c490dbc18459d6f2239cd5a4a859fe8fa30ef9639df0ed38e2ec270edd7ed7',
    ('rocket_clean', 'smc_no_fencei'):
        'c82e84f09554da24849f7231ec3784fc3dddd6edf17955dd4dfeecf47f6674df',
    ('rocket_clean', 'trap_storm'):
        'd730f664e5e1456c46d0b422a27784460676e15fa82df0442bcaed8718ffcdfd',
    ('rocket_clean', 'wild_jump'):
        '183633e17d2b56c72a2e96e18213d0874b8e753636705679dc16d6dff8c36d92',
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_scalar_output_pinned(engine, case):
    assert digest(engine, case) == PINNED[(engine, case)]


def test_cases_reach_their_stop_reasons():
    """The shaped bodies really exercise the cut-offs they are named for."""
    golden = GoldenSimulator()
    reasons = {case: golden.run(build_program(CASES[case]()[0])).stop_reason
               for case in ("runaway_loop", "trap_storm", "wild_jump")}
    assert reasons == {"runaway_loop": "max_steps",
                       "trap_storm": "max_traps", "wild_jump": "max_traps"}


if __name__ == "__main__":
    for key in sorted((e, c) for e in ENGINES for c in CASES):
        print(f"    {key!r}:\n        {digest(*key)!r},")
