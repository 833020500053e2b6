#!/usr/bin/env python3
"""Sweep all small quadratic instances looking for candidates that defeat the
pumping machinery: infinitely many solutions, no certificate, and a maximal
exponent that refuses to grow.  Over targets in the supported variety the
suspect bucket is provably empty; outside it, none has been found either."""

import json

from weq.hunt import run_hunt
from weq.semigroup import builtin

for name, max_len in [("trivial", 5), ("b2", 4)]:
    report = run_hunt(
        builtin(name), n_constants=2, max_vars=2, max_len=max_len,
        budget=10**6, seed=0,
    )
    print(f"--- target {name}, |UV| <= {max_len} ---")
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    assert report.suspects == 0
print("no suspects anywhere; the conjecture survives this neighborhood")
