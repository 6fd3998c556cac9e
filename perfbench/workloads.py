"""The benchmark's workloads.

Each workload turns a workload seed into the INI config that one
`htlab run` process receives; the program sees only that config. The
workload seed sets the scenario seed and the run seeds: seed n gives
scenario seed n and run seeds n*S .. n*S + S - 1 for S seeds per run, so
seed 0 of `reference` is exactly the frozen `configs/reference.ini`.

Why each workload exists (see README.md for the per-layer map):

- reference: the grid behind the paper's tables. Every layer does some
  work, and three source pretrains land in set-up.
- lol-distill-jobs2: the leave-out local SGD family with distillation,
  four seeds, a warm source cache and two worker processes. Leave-out
  rounds, per-batch source forwards and the process pool dominate; set-up
  is the checkpoint-read path.
- bn-adapter: a batchnorm + input-adapter model on the paired confusable
  scenario. It reaches the BN and adapter branches of forward/backward,
  masks that freeze most groups, and the false-negative-rate path. It runs
  no LOL and no distillation, so gains there predict no change here.
"""

from __future__ import annotations

import configparser
import io
import os
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_INI = os.path.join(HERE, "configs", "reference.ini")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seeds_per_run: int
    jobs: int
    warm_cache: bool
    # section -> keys that replace the whole section of the frozen reference
    replace: dict = field(default_factory=dict)
    # section -> keys set on top of the frozen reference
    update: dict = field(default_factory=dict)

    def run_seeds(self, seed: int) -> list:
        return [seed * self.seeds_per_run + i for i in range(self.seeds_per_run)]

    def config(self, seed: int) -> configparser.ConfigParser:
        cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
        cp.read(REFERENCE_INI)
        for section, keys in self.replace.items():
            cp.remove_section(section)
            cp[section] = keys
        for section, keys in self.update.items():
            for k, v in keys.items():
                cp[section][k] = v
        cp["scenario"]["seed"] = str(seed)
        cp["run"]["seeds"] = ",".join(str(s) for s in self.run_seeds(seed))
        return cp

    def config_text(self, seed: int) -> str:
        buf = io.StringIO()
        self.config(seed).write(buf)
        return buf.getvalue()

    def protocols(self) -> list:
        return [n.strip() for n in self.config(0)["protocols"]["names"].split(",")
                if n.strip()]

    def ensembles(self) -> bool:
        return self.config(0)["run"].getboolean("ensembles")

    def cells(self) -> int:
        """(protocol, seed) cells one run attempts."""
        return len(self.protocols()) * self.seeds_per_run

    def summary_rows(self) -> int:
        """Data rows summary.csv must hold: one per cell, plus an SE and a
        WiSE row per trained cell when ensembles are on."""
        trained = [p for p in self.protocols() if p != "source_only"]
        extra = 2 * len(trained) * self.seeds_per_run if self.ensembles() else 0
        return self.cells() + extra


WORKLOADS = {w.name: w for w in (
    Workload(
        name="reference",
        why="the paper's 12-protocol x 3-seed grid with ensembles; every layer "
            "works and 3 source pretrains land in set-up",
        seeds_per_run=3, jobs=1, warm_cache=False),
    Workload(
        name="lol-distill-jobs2",
        why="leave-out local SGD with distillation at --jobs 2 on a warm "
            "source cache: LOL rounds, source forwards and the process pool",
        seeds_per_run=4, jobs=2, warm_cache=True,
        update={
            "protocols": {"names": "sgd_distill,lolsgd,lolsgd_distill,"
                                   "lolsgd_rank,lolsgd_distill_rank"},
            "run": {"ensembles": "false"},
        }),
    Workload(
        name="bn-adapter",
        why="batchnorm + input-adapter model on confusable pairs: BN/adapter "
            "branches, freeze masks and FNR; no LOL or distillation (control)",
        seeds_per_run=3, jobs=1, warm_cache=False,
        replace={
            "scenario": {"kind": "paired", "pairs": "6", "overlap": "0.6",
                         "dim": "16", "source_per_class": "200",
                         "train_per_class": "60", "test_per_class": "40",
                         "cluster_sep": "5.0"},
        },
        update={
            "model": {"batchnorm": "true", "in_adapter": "true"},
            "protocols": {"names": "naive_ft,frozen_ft,lp_ft,bn_affine_only,"
                                   "bn_stats_only,in_adapter_only,swa,swad_lite"},
        }),
)}
