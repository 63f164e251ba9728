"""Which package functions the traced run wraps, and the per-layer metrics.

Each function is wrapped where its caller looks it up: the CLI imports most
layer functions by name, the optimizer and the baselines import
`sinr_from_rx`, and the radio module imports `los_mask`. The benchmark's
own calls go through the module attributes (`radio.build_link_table`,
`optimizer.run_nsga2`, `cli.main`, ...).
"""

from __future__ import annotations

from collections import defaultdict

from bsplace import baselines, cli, eval_report, optimizer, radio, scene


def _los_attrs(args, result):
    return {"pairs": int(result.size), "blocked": int(result.size - result.sum())}


def _site_set(args, result):
    return {"sites": tuple(sorted(int(s) for s in args[0]))}


def _lloyd_iters(args, result):
    return {"iters": len(result[2])}


def targets():
    return [
        (cli, "main", None),
        (cli, "load_raster", None),
        (cli, "load_dsm", None),
        (cli, "save_scene", None),
        (cli, "load_scene", None),
        (cli, "attach_and_evaluate", None),
        (cli, "coverage_curve", None),
        (cli, "throughput_cdf", None),
        (cli, "save_coverage_csv", None),
        (cli, "save_throughput_csv", None),
        (cli, "save_placement_csv", None),
        (scene, "extract_buildings", None),
        (scene, "place_users", None),
        (scene, "place_candidates", None),
        (radio, "los_mask", _los_attrs),
        (radio, "build_link_table", None),
        (radio, "sinr_from_rx", None),
        (optimizer, "sinr_from_rx", None),
        (baselines, "sinr_from_rx", None),
        (optimizer, "run_nsga2", None),
        (optimizer, "run_ga_single_objective", None),
        (optimizer, "evaluate_sites", _site_set),
        (optimizer, "non_dominated_sort", None),
        (optimizer, "crowding_distance", None),
        (optimizer, "repair", None),
        (optimizer, "repair_fixed_m", None),
        (optimizer, "decode_sites", None),
        (baselines, "kmeans_site_ids", None),
        (baselines, "lloyd", _lloyd_iters),
        (eval_report, "generate_synthetic_scene", None),
    ]


REPORT_FUNCTIONS = ("eval_report.coverage_curve", "eval_report.throughput_cdf",
                    "eval_report.save_coverage_csv", "eval_report.save_throughput_csv",
                    "eval_report.save_placement_csv")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def span_metrics(spans, own, lo: int, hi: int) -> dict:
    """Per-layer metrics of the spans `lo..hi-1` (one timed repetition)."""
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    pairs = blocked = lloyd_iters = 0
    site_sets = set()
    for i in range(lo, hi):
        s = spans[i]
        calls[s.name] += 1
        total[s.name] += s.end - s.start
        self_s[s.name] += own[i]
        if s.name == "geometry.los_mask":
            pairs += s.attrs["pairs"]
            blocked += s.attrs["blocked"]
        elif s.name == "optimizer.evaluate_sites":
            site_sets.add(s.attrs["sites"])
        elif s.name == "baselines.lloyd":
            lloyd_iters += s.attrs["iters"]

    los_s = self_s["geometry.los_mask"]
    search_s = total["optimizer.run_nsga2"] + total["optimizer.run_ga_single_objective"]
    evals = calls["optimizer.evaluate_sites"]
    return {
        "scene.grid_read_s": total["scene.load_raster"] + total["scene.load_dsm"],
        "scene.extract_s": total["scene.extract_buildings"],
        "scene.place_s": total["scene.place_users"] + total["scene.place_candidates"],
        "scene.json_s": total["scene.save_scene"] + total["scene.load_scene"],
        "geometry.los_s": los_s,
        "geometry.pairs": pairs,
        "geometry.pairs_per_s": _ratio(pairs, los_s),
        "geometry.blocked_frac": _ratio(blocked, pairs),
        "radio.table_s": self_s["radio.build_link_table"],
        "radio.attach_s": self_s["radio.attach_and_evaluate"],
        "radio.sinr_calls": calls["radio.sinr_from_rx"],
        "radio.sinr_s": self_s["radio.sinr_from_rx"],
        "optimizer.nsga2_s": total["optimizer.run_nsga2"],
        "optimizer.ga_s": total["optimizer.run_ga_single_objective"],
        "optimizer.evals": evals,
        "optimizer.evals_per_s": _ratio(evals, search_s),
        "optimizer.eval_unique_frac": _ratio(len(site_sets), evals),
        "optimizer.eval_s": self_s["optimizer.evaluate_sites"],
        "optimizer.sort_s": (self_s["optimizer.non_dominated_sort"]
                             + self_s["optimizer.crowding_distance"]),
        "optimizer.repair_s": (self_s["optimizer.repair"] + self_s["optimizer.repair_fixed_m"]
                               + self_s["optimizer.decode_sites"]),
        "optimizer.self_s": (self_s["optimizer.run_nsga2"]
                             + self_s["optimizer.run_ga_single_objective"]),
        "baselines.kmeans_s": total["baselines.kmeans_site_ids"],
        "baselines.lloyd_iters": lloyd_iters,
        "eval_report.report_s": sum(total[name] for name in REPORT_FUNCTIONS),
        "cli.self_s": self_s["cli.main"],
    }
