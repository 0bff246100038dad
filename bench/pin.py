"""Regenerate pins.json: the digest of every corpus input's answer.

Run from the root of a checkout whose answers are trusted:

    python3 bench/pin.py

Each answer must pass its independent check before it is pinned.  A
later commit is measured against these pins, so rerun this only when
the corpus itself changes, never to make a failing commit pass.
"""

import json
import sys

from run import SRC, require_checkout
from workloads import PINS_PATH, WORKLOADS


def main() -> int:
    require_checkout()
    sys.path.insert(0, str(SRC))
    pins = {}
    for name, workload in WORKLOADS.items():
        entries = {}
        for key in workload.keys():
            item = workload.item(key)
            answer = workload.run(item)
            reason = workload.check(item, answer)
            if reason:
                raise SystemExit(f"pin.py: {name} {key}: {reason}")
            entries[key] = workload.digest(answer)
        pins[name] = entries
        print(f"{name}: {len(entries)} inputs pinned", flush=True)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
