"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``[acceptance] <name>: PASS/FAIL`` line (visible
with ``pytest -s`` or in the captured-output section of a failure report)
and then asserts. The criteria exercise exhaustive-enumeration equivalence,
dominance over the sequential baselines, length-penalty reduction,
probability-ordering direction, speed sanity, and bit-level determinism.
"""

import json
import math
import time

import numpy as np

from dagdecode import (
    GeneratorConfig,
    TableMode,
    benchmark,
    brute_force_best_joint,
    brute_force_best_path,
    brute_force_marginal,
    build_viterbi_table,
    compare_strategies,
    decode,
    generate_instance,
    greedy_decode,
    joint_viterbi_decode,
    lookahead_decode,
    marginal_translation_log_prob,
    select_length,
    viterbi_decode,
)
from dagdecode.cli import run_cli

from conftest import I4_EMISSIONS, I4_TRANSITIONS, make_suite


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_path_optimality(suite_500):
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for inst in suite_500:
        table = build_viterbi_table(inst, TableMode.PATH)
        best = brute_force_best_path(inst).best_per_length
        for length in table.feasible_lengths():
            got = math.exp(table.alpha[length - 1])
            want = best[length][1]
            worst = max(worst, abs(got - want) / want)
            checked += 1
    elapsed = time.perf_counter() - start
    _report(
        "1 path optimality vs enumeration",
        worst <= 1e-12 and elapsed < 60.0,
        f"{checked} lengths over {len(suite_500)} instances, "
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_joint_optimality(suite_500):
    worst = 0.0
    worst_rescore = 0.0
    for inst in suite_500:
        table = build_viterbi_table(inst, TableMode.JOINT)
        best = brute_force_best_joint(inst).best_per_length
        for length in table.feasible_lengths():
            got = math.exp(table.alpha[length - 1])
            want = best[length][1]
            worst = max(worst, abs(got - want) / want)
        for beta in (0.0, 1.0):
            selection = select_length(table, beta)
            hyp = joint_viterbi_decode(inst, beta=beta)
            assert hyp.length == selection.chosen_M
            worst_rescore = max(
                worst_rescore,
                abs(hyp.joint_logprob - table.alpha[selection.chosen_M - 1]),
            )
    _report(
        "2 joint optimality vs enumeration",
        worst <= 1e-12 and worst_rescore <= 1e-9,
        f"worst rel err {worst:.2e}, worst rescore gap {worst_rescore:.2e}",
    )


def test_criterion_3_marginal_correctness():
    instances = make_suite(200, seed0=47000)
    worst = 0.0
    checked = 0
    for k, inst in enumerate(instances):
        rng = np.random.default_rng(52000 + k)
        random_tokens = [
            int(t)
            for t in rng.integers(0, inst.V, size=int(rng.integers(2, inst.L + 1)))
        ]
        candidates = [
            list(lookahead_decode(inst).tokens),
            list(joint_viterbi_decode(inst, beta=0.0).tokens),
            random_tokens,
        ]
        for tokens in candidates:
            dp = marginal_translation_log_prob(inst, tokens)
            exact = brute_force_marginal(inst, tokens)
            checked += 1
            if exact == 0.0:
                assert dp == -math.inf
                continue
            worst = max(worst, abs(math.exp(dp) - exact) / exact)
    _report(
        "3 marginal equals enumeration",
        worst <= 1e-9,
        f"{checked} sequences, worst rel err {worst:.2e}",
    )


def test_criterion_4_dominance(suite_500):
    jv_losses = vit_losses = 0
    for inst in suite_500:
        if joint_viterbi_decode(inst, beta=0.0).joint_logprob < lookahead_decode(inst).joint_logprob:
            jv_losses += 1
        if viterbi_decode(inst, beta=0.0).path_logprob < greedy_decode(inst).path_logprob:
            vit_losses += 1

    witness_ok = True
    strict_rates = []
    for L, seed0 in ((6, 61000), (8, 62000)):
        batch = [
            generate_instance(GeneratorConfig(L=L, V=3, seed=seed0 + k))
            for k in range(100)
        ]
        strict_jv = sum(
            joint_viterbi_decode(i, beta=0.0).joint_logprob
            > lookahead_decode(i).joint_logprob
            for i in batch
        )
        strict_vit = sum(
            viterbi_decode(i, beta=0.0).path_logprob > greedy_decode(i).path_logprob
            for i in batch
        )
        witness_ok = witness_ok and strict_jv >= 1 and strict_vit >= 1
        strict_rates.append(f"L={L}: jv {strict_jv}/100, viterbi {strict_vit}/100")
    _report(
        "4 dominance over sequential baselines",
        jv_losses == 0 and vit_losses == 0 and witness_ok,
        f"losses jv={jv_losses} viterbi={vit_losses}; strict wins {'; '.join(strict_rates)}",
    )


def test_criterion_5_length_penalty_reduction(suite_500):
    from dagdecode import Instance

    ok = True
    for inst in suite_500[:80]:
        for mode in (TableMode.PATH, TableMode.JOINT):
            table = build_viterbi_table(inst, mode)
            terminal = {i: table.alpha[i - 1] for i in table.feasible_lengths()}
            expected = max(sorted(terminal), key=lambda i: (terminal[i], i))
            ok = ok and select_length(table, 0.0).chosen_M == expected

    i4 = Instance.from_probs(I4_TRANSITIONS, I4_EMISSIONS)
    table = build_viterbi_table(i4, TableMode.PATH)
    golden = {2: 0.1, 3: 0.28, 4: 0.42}
    worst = max(
        abs(math.exp(table.alpha[i - 1]) - p) / p for i, p in golden.items()
    )
    _report(
        "5 beta=0 reduces to plain argmax",
        ok and worst <= 1e-12,
        f"golden per-length worst rel err {worst:.2e}",
    )


def test_criterion_6_marginal_ordering():
    instances = [
        generate_instance(GeneratorConfig(L=8, V=5, seed=15000 + k)) for k in range(200)
    ]
    jv_mean = float(
        np.mean(
            [
                marginal_translation_log_prob(i, joint_viterbi_decode(i, beta=0.0).tokens)
                for i in instances
            ]
        )
    )
    la_mean = float(
        np.mean(
            [
                marginal_translation_log_prob(i, lookahead_decode(i).tokens)
                for i in instances
            ]
        )
    )
    _report(
        "6 marginal ordering joint-viterbi >= lookahead",
        jv_mean >= la_mean,
        f"means {jv_mean:.4f} vs {la_mean:.4f}",
    )


def test_criterion_7_speed_sanity():
    # Timed by analysis.benchmark, as `dagdecode bench` times: the ratio of medians of
    # single decodes over 3 instances x 15 repetitions, the two strategies alternating.
    instances = [
        generate_instance(GeneratorConfig(L=256, V=32, seed=99000 + k)) for k in range(3)
    ]
    stats = benchmark(instances, ["greedy", "joint-viterbi"], repetitions=15, beta=1.0)
    greedy, joint = stats["greedy"], stats["joint-viterbi"]
    _report(
        "7 joint-viterbi within 3x greedy at L=256",
        joint.ratio_vs_baseline <= 3.0,
        f"ratio {joint.ratio_vs_baseline:.1f}x (median greedy "
        f"{greedy.median_seconds * 1e6:.0f}us, joint-viterbi {joint.median_seconds * 1e3:.2f}ms)",
    )


def test_criterion_8_determinism(suite_500, capsys, tmp_path):
    ok = True

    for inst in suite_500[:20]:
        for strategy in ("greedy", "lookahead", "viterbi", "joint-viterbi"):
            ok = ok and decode(inst, strategy, beta=1.0) == decode(inst, strategy, beta=1.0)

    config = GeneratorConfig(L=8, V=4, seed=77001, sparsity=0.3)
    ok = ok and generate_instance(config) == generate_instance(config)

    instances = suite_500[:30]
    report_a = compare_strategies(instances, ["lookahead", "joint-viterbi"], "joint", beta=0.0)
    report_b = compare_strategies(instances, ["lookahead", "joint-viterbi"], "joint", beta=0.0)
    ok = ok and report_a == report_b

    gen_args = ["gen", "--length", "8", "--vocab", "3", "--seed", "88", "--count", "2"]
    assert run_cli(gen_args + ["--out", str(tmp_path / "a")]) == 0
    assert run_cli(gen_args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for k in (88, 89):
        ok = ok and (
            (tmp_path / "a" / f"inst_{k}.json").read_bytes()
            == (tmp_path / "b" / f"inst_{k}.json").read_bytes()
        )

    outputs = []
    for _ in range(2):
        code = run_cli(
            [
                "decode",
                "--strategy", "joint-viterbi",
                "--beta", "1.0",
                "--input", str(tmp_path / "a" / "inst_88.json"),
            ]
        )
        assert code == 0
        outputs.append(capsys.readouterr().out)
    ok = ok and outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    ok = ok and doc["config"]["beta"] == 1.0

    analyze_out = []
    for _ in range(2):
        code = run_cli(
            ["analyze", "--inputs", str(tmp_path / "a"), "--strategies",
             "greedy,joint-viterbi", "--score", "marginal", "--beta", "0"]
        )
        assert code == 0
        analyze_out.append(capsys.readouterr().out)
    ok = ok and analyze_out[0] == analyze_out[1]

    with capsys.disabled():
        _report("8 bit-identical reruns", ok)
