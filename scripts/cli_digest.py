#!/usr/bin/env python3
"""One sha256 per output body of the benchmark's cli_session workload.

For each seed given it builds the full-size calls that benchmark/workloads.py
builds, runs each in this process through stochastica.cli.main, and prints one
"seed call sha256" line per call, the call named by its config file. Two runs
that print the same lines wrote the same bytes, so a change to the library
kept every CLI body when

    PYTHONPATH=src python scripts/cli_digest.py 1 2
    PYTHONPATH=/path/to/other/checkout/src python scripts/cli_digest.py 1 2

print the same lines. benchmark/workloads.py is only read: nothing, bytecode
included, is written under benchmark/.
"""

import argparse
import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path
from unittest import mock

from stochastica import cli

BENCH = Path(__file__).resolve().parents[1] / "benchmark"


def load_workloads():
    """benchmark/workloads.py as a module; sys.path and the bytecode flag are
    set only while it loads (it imports reference.py from its own folder)."""
    spec = importlib.util.spec_from_file_location("benchmark_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look it up
    with mock.patch.object(sys, "path", [str(BENCH), *sys.path]), \
            mock.patch.object(sys, "dont_write_bytecode", True):
        spec.loader.exec_module(workloads)
    return workloads


def cli_digests(seeds):
    """(seed, call name, sha256 of its body) for each cli_session call of each seed."""
    session = load_workloads().CliSession(small=False)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for call in session.build(seed, tmp):
                if cli.main(call.argv) != 0:
                    sys.exit(f"seed {seed}: stochastica {' '.join(call.argv)} failed")
                yield seed, Path(call.out).stem, hashlib.sha256(
                    Path(call.out).read_bytes()).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+", metavar="SEED")
    for seed, name, sha in cli_digests(parser.parse_args().seeds):
        print(seed, name, sha)


if __name__ == "__main__":
    main()
