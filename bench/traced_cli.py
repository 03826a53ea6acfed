"""Run one dualstab command in-process with its layers traced.

Usage: python3 traced_cli.py SPANS_JSON <dualstab arguments>

Wraps the public functions named in ``layers.LAYERS`` in every dualstab
module that imported them, calls ``dualstab.cli.main`` inside a command span,
writes the span records to SPANS_JSON and exits with the command's exit code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import sys

import numpy as np

from layers import COMMAND_SPAN, LAYERS
from tracer import Tracer, self_times


def _digest(*arrays):
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((a.shape, a.dtype.str)).encode())
        h.update(a.data)
    return h.hexdigest()


# Factorizations are reused across many calls; hash each one once.  Holding
# the array keeps its id from being reused by another array.
_FACTOR_DIGESTS = {}


def _factor_digest(fact):
    entry = _FACTOR_DIGESTS.get(id(fact.lower))
    if entry is None:
        entry = _FACTOR_DIGESTS[id(fact.lower)] = (fact.lower, _digest(fact.lower))
    return entry[1]


# Input keys count repeated work.  build_truth reads only the fields keyed
# here; everything build_spaces builds is independent of gamma, which it only
# stores, so a rebuild that differs in gamma alone counts as a repeat.
KEYS = {
    "dualprod.pressure_deflation": lambda b_t, q_gram: _digest(b_t, q_gram),
    "algebra.operator_norm": lambda a, test_fact, trial_fact: "-".join(
        (_digest(a), _factor_digest(test_fact), _factor_digest(trial_fact))
    ),
    "algebra.sym_generalized_eig": lambda a, b_fact: _digest(a) + "-" + _factor_digest(b_fact),
    "models.build_truth": lambda cfg, solution=None: repr(
        (cfg.truth_elems, cfg.coarse_elems, cfg.pressure_kind, cfg.reaction, solution)
    ),
    "models.build_spaces": lambda cfg, pb, q_select=None: repr(
        (dataclasses.replace(cfg, gamma=0.0), pb.label, None if q_select is None else list(q_select))
    ),
}

SIZES = {
    "algebra.sym_generalized_eig": lambda a, b_fact: b_fact.dim,
    "saddle.solve": lambda system: system.matrix.shape[0],
}


def install(tracer):
    """Wrap every traced dualstab function; the package must be imported."""
    for module_name, names in LAYERS.items():
        if module_name == "cli":
            continue
        module = importlib.import_module(f"dualstab.{module_name}")
        for attr in names:
            name = f"{module_name}.{attr}"
            if isinstance(getattr(module, attr), type):
                tracer.patch_init(getattr(module, attr), name)
            else:
                tracer.patch_function(
                    module, attr, name, key=KEYS.get(name), size=SIZES.get(name)
                )


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    from dualstab import cli

    tracer = Tracer()
    install(tracer)
    try:
        with tracer.span(COMMAND_SPAN):
            code = cli.main(cli_args)
    finally:
        tracer.unpatch()
    spans = tracer.spans
    records = [
        [s.name, s.end - s.start, self_s, s.size, s.key]
        for s, self_s in zip(spans, self_times(spans))
    ]
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(records, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
