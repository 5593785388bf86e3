"""One set-up sample, in a fresh interpreter.

Reads {"module": ..., "inputs": [[loader, json_obj], ...]} on stdin, then
times importing qformkit and parsing every input through its JSON
loaders, and prints the seconds taken.  Run by run.py with PYTHONPATH
pointing at the checkout's src/.
"""

import json
import sys
import time

if __name__ == "__main__":
    text = sys.stdin.read()
    start = time.perf_counter()
    spec = json.loads(text)
    __import__(spec["module"])
    from qformkit.forms import form_from_json, transform_from_json
    from qformkit.polys import poly_from_json

    loaders = {"form": form_from_json, "transform": transform_from_json, "poly": poly_from_json}
    parsed = [loaders[loader](obj) for loader, obj in spec["inputs"]]
    print(time.perf_counter() - start)
