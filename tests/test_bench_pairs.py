import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "wall_s", "unit": "s", "better": "lower"},
              {"name": "pass_frac", "unit": "ratio", "better": "higher"}]


def stdout(wall, pass_frac, failed, attempted, passes, correct=True):
    """What perfbench/run.py prints last: a detail line, then the result."""
    detail = {"detail": {"workload": "verify-rank", "passes": passes}}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {"wall_s": {"value": wall, "unit": "s"},
                          "pass_frac": {"value": pass_frac,
                                        "unit": "ratio"}}}
    return "   wall_s 1 s\n" + json.dumps(detail) + "\n" + json.dumps(result)


def test_parse_run_reads_the_last_two_lines():
    run = bench_pairs.parse_run(stdout(4.5, 0.95, 8, 160, 2))
    assert run == {"metrics": {"wall_s": 4.5, "pass_frac": 0.95},
                   "failed": 8, "attempted": 160, "passes": 2,
                   "correct": True}
    assert bench_pairs.per_pass(run) == "4/80"


def test_summary_counts_wins_and_failures_per_pass():
    # the change fits two passes where the parent fits one: the same 4
    # failing ops per pass read 8/160 summed against 4/80
    runs = [(1, stdout(5.0, 0.95, 4, 80, 1), stdout(4.0, 0.95, 8, 160, 2)),
            (2, stdout(6.0, 0.90, 8, 80, 1), stdout(6.5, 0.90, 16, 160, 2)),
            (1, stdout(5.5, 0.95, 4, 80, 1), stdout(4.5, 0.975, 4, 160, 2))]
    pairs = [(seed, bench_pairs.parse_run(a), bench_pairs.parse_run(b))
             for seed, a, b in runs]
    lines = bench_pairs.summary(pairs, END_TO_END)
    assert lines[0] == ("wall_s (s, lower is better): parent 5.25/5.5/5.75, "
                        "change 4.25/4.5/5.5 (q1/median/q3); change wins "
                        "2/3, ties 0; median gap -1, parent IQR 0.5")
    assert lines[1].startswith("pass_frac (ratio, higher is better)")
    assert "change wins 1/3, ties 2" in lines[1]
    assert lines[2] == ("parent: failed/attempted per pass, summed over pairs "
                        "16/240; pooled over every pass 16/240")
    assert lines[3] == ("change: failed/attempted per pass, summed over pairs "
                        "14/240; pooled over every pass 28/480")
    line = bench_pairs.pair_line(1, 2, False, pairs[1][1], pairs[1][2])
    assert line == ("pair 2 seed 2 (change first): wall_s 6 -> 6.5; "
                    "failed/attempted parent 8/80 per pass (1 passes, 8/80 "
                    "summed), change 8/80 per pass (2 passes, 16/160 summed)")
