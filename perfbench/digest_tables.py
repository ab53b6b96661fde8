#!/usr/bin/env python3
"""Write the reference digest of the experiment tables.

Reads the standard output of `all_experiments` on stdin and prints one
line per table: the FNV-1a 64-bit hash of the table's printed text (from
its `## ` title line up to the next one) and its title. The `suite`
workload checks each table it produces against these lines.

    cargo run --release -q -p bench --bin all_experiments \
        | python3 perfbench/digest_tables.py > perfbench/suite_tables.digest
"""

import sys


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def tables(text):
    chunk = []
    for line in text.splitlines(keepends=True):
        if line.startswith("## ") and chunk:
            yield "".join(chunk)
            chunk = []
        chunk.append(line)
    if chunk:
        yield "".join(chunk)


def main():
    for t in tables(sys.stdin.read()):
        title = t.splitlines()[0][3:]
        print("%016x %s" % (fnv1a64(t.encode()), title))


if __name__ == "__main__":
    main()
