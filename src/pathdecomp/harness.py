"""Experiment orchestration: run decompositions over a delta grid, apply every
verifier check, estimate padding, and emit one JSON report.

Reports are deterministic for a fixed config: the only run-dependent field is
the single `timestamp` header entry, so golden-file comparisons just mask it.
A paper-scheme result carries checks["separators"]: every recursion node's
separator certificate, validated (verifier.check_separators).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

from .decomposer import (
    DecompositionParams,
    _require_valid_delta,
    baseline_decompose,
    carve,
    choose_centers,
    dump_partition,
)
from .generators import WEIGHT_MODES, gen_grid, gen_ktree
from .graph import WeightedGraph, _integer, load_graph, weighted_diameter
from .separators import greedy_find, tree_centroid_find
from . import verifier

FINDERS = {"greedy": greedy_find, "centroid": tree_centroid_find}
SCHEMES = ("paper", "baseline", "both")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs; all state flows through this object.
    It is checked when built: a bad field raises ConfigError."""

    graph_file: str | None = None
    gen: str | None = None                 # "grid:R,C" or "ktree:N,K"
    weights: str = "unit"
    gen_seed: int = 0
    deltas: tuple[float, ...] | None = None  # None -> {W/8, W/4, W/2}
    gammas: tuple[float, ...] = verifier.DEFAULT_GAMMAS
    trials: int = 500
    seed: int = 0
    finder: str = "greedy"
    scheme: str = "paper"
    out: str | None = None
    dump_partition: str | None = None

    def __post_init__(self):
        if (self.graph_file is None) == (self.gen is None):
            raise ConfigError("provide exactly one of a graph file or a generator spec")
        if self.gen is not None:
            parse_gen_spec(self.gen)
        for name, known in (("weights", WEIGHT_MODES), ("finder", FINDERS), ("scheme", SCHEMES)):
            if (value := getattr(self, name)) not in known:
                raise ConfigError(f"unknown {name} {value!r}; expected {'|'.join(known)}")
        # the library's own rules, re-raised as configuration errors; the
        # checked values are kept as Python ints and floats, the lists as
        # tuples, so that no caller can change a checked field through its own list
        try:
            for name, least in (("trials", 1), ("seed", None), ("gen_seed", None)):
                object.__setattr__(self, name, _integer(name, getattr(self, name), least))
            if self.deltas is not None:
                object.__setattr__(self, "deltas", tuple(map(_require_valid_delta, self.deltas)))
                if not self.deltas:
                    raise ConfigError("deltas must not be empty")
            object.__setattr__(self, "gammas",
                               tuple(map(verifier._require_gamma_in_range, self.gammas)))
            if not self.gammas:
                raise ConfigError("gammas must not be empty")
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def to_json_obj(self) -> dict:
        """Every field but the output paths, which do not change the report."""
        obj = asdict(self)
        del obj["out"], obj["dump_partition"]
        return obj


def parse_gen_spec(spec: str):
    """Parse "grid:R,C" / "ktree:N,K" into (kind, (a, b))."""
    try:
        kind, args = spec.split(":", 1)
        a, b = (int(x) for x in args.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad generator spec {spec!r}; expected grid:R,C or ktree:N,K") from exc
    if kind not in ("grid", "ktree"):
        raise ConfigError(f"unknown generator {kind!r}; expected grid or ktree")
    return kind, (a, b)


def build_graph(cfg: ExperimentConfig):
    """Materialize the input graph; returns (graph, description, extras)."""
    if cfg.graph_file is not None:
        try:
            g = load_graph(cfg.graph_file)
        except OSError as exc:
            raise ConfigError(f"cannot read graph file {cfg.graph_file}: {exc}") from exc
        return g, f"file:{cfg.graph_file}", {}
    kind, (a, b) = parse_gen_spec(cfg.gen)
    desc = f"gen:{kind}:{a},{b}:{cfg.weights}:seed{cfg.gen_seed}"
    try:
        if kind == "grid":
            return gen_grid(a, b, cfg.weights, cfg.gen_seed), desc, {}
        sample = gen_ktree(a, b, cfg.weights, cfg.gen_seed)
    except ValueError as exc:  # the generator's own argument rules
        raise ConfigError(f"generator {cfg.gen!r}: {exc}") from exc
    return sample.graph, desc, {"k": sample.k}


def default_deltas(w: float) -> tuple[float, ...]:
    """{W/8, W/4, W/2} for weighted diameter w; a single-vertex graph (w = 0)
    falls back to delta = 1."""
    if w <= 0:
        return (1.0,)
    return (w / 8.0, w / 4.0, w / 2.0)


def _check_str(violation) -> str:
    return "ok" if violation is None else str(violation)


def _run_scheme(g: WeightedGraph, delta: float, scheme: str, cfg: ExperimentConfig) -> dict:
    result: dict = {"delta": delta, "scheme": scheme}
    checks: dict = {}

    if scheme == "paper":
        finder = FINDERS[cfg.finder]
        seq = choose_centers(g, delta, finder)
        params = DecompositionParams.for_graph(delta, cfg.seed, seq.p_eff, g.n)
        part = carve(g, seq, params)
        result.update({
            "p_eff": seq.p_eff,
            "K": params.K,
            "lambda": params.lam,
            "beta": params.beta(),
            "centers": len(seq.records),
            "max_depth": seq.max_depth,
        })
        checks["recursion_depth"] = _check_str(verifier.check_recursion_depth(seq))
        checks["separators"] = _check_str(verifier.check_separators(g, seq))
        threat = verifier.threatener_report(
            g, seq, params, verifier.GAMMA_MAX, verifier.sample_vertices(g, cfg.seed)
        )
        checks["threateners"] = (
            "ok" if threat.all_ok()
            else f"[threateners] worst count {threat.worst()} exceeds bound {threat.bound}"
        )
        result["threatener_bound"] = threat.bound
        result["threatener_worst"] = threat.worst()
    else:
        params = DecompositionParams.for_baseline(delta, cfg.seed, g.n)
        part = baseline_decompose(g, delta, cfg.seed)
        result["lambda"] = params.lam

    checks["partition"] = _check_str(verifier.check_partition(g, part))
    checks["diameter"] = _check_str(verifier.check_cluster_diameters(g, part, delta))
    result["clusters"] = len(part.clusters)

    padding = verifier.estimate_padding(
        g, delta, FINDERS[cfg.finder], cfg.gammas, cfg.trials, cfg.seed, scheme
    )
    padding_obj = padding.to_json_obj()
    checks["padding"] = "ok" if padding_obj["all_pass"] else (
        "[padding] " + "; ".join(
            f"vertex {r.vertex} gamma {r.gamma}: wilson {r.wilson_lb:.6f} < floor {r.floor:.6f}"
            for r in padding.failures()[:5]
        )
    )
    result["padding"] = padding_obj
    result["fitted_beta"] = padding_obj["fitted_beta"]

    result["checks"] = checks
    result["pass"] = all(v == "ok" for v in checks.values())

    if cfg.dump_partition:
        path = f"{cfg.dump_partition}.delta-{delta!r}.{scheme}.txt"
        dump_partition(part, params, path)
        result["partition_dump"] = path
    return result


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute the experiment and return the report dict (also written to
    cfg.out when set). report["pass"] aggregates every check."""
    g, desc, extras = build_graph(cfg)
    diameter = weighted_diameter(g)
    deltas = cfg.deltas if cfg.deltas is not None else default_deltas(diameter)
    schemes = ("paper", "baseline") if cfg.scheme == "both" else (cfg.scheme,)

    results = []
    for delta in deltas:
        for scheme in schemes:
            results.append(_run_scheme(g, delta, scheme, cfg))

    report = {
        "config": cfg.to_json_obj(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "graph": {
            "source": desc,
            "n": g.n,
            "m": g.m,
            "weighted_diameter": diameter,
            **extras,
        },
        "deltas": list(deltas),
        "results": results,
        "pass": all(r["pass"] for r in results),
    }
    if cfg.out:
        write_report(report, cfg.out)
    return report


def write_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
