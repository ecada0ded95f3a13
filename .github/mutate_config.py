"""Write a copy of a scenario config with some keys set to new JSON values.

    python3 .github/mutate_config.py SRC DST KEY JSON [KEY JSON ...]

Each KEY is a top-level key (checks, t_span) or <section>.<key>
(params.dt_cap, model.phi_sine_amplitude); each JSON is its new value.
"""

import json
import sys

src, dst, *pairs = sys.argv[1:]
if not pairs or len(pairs) % 2:
    sys.exit(__doc__)
with open(src) as f:
    doc = json.load(f)
for path, value in zip(pairs[::2], pairs[1::2]):
    *section, key = path.split(".")
    (doc[section[0]] if section else doc)[key] = json.loads(value)
with open(dst, "w") as f:
    json.dump(doc, f)
