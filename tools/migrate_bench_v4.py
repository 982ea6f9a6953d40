#!/usr/bin/env python3
"""Rewrites cpt-bench-report v3 documents as v4, and checks such a rewrite.

Schema v4 deletes three things from v3 and changes no other value:
  - the report-level "concurrency" section (lock-contention sites);
  - "lock_stripes" from every machine-options object;
  - "counters" and "derived" from every host_perf object whose "available"
    is false (they only ever held zeros);
and bumps "schema_version" from 3 to 4.

The rewrite re-emits the document in obs::JsonWriter's pretty layout with
every number kept as its original text, and refuses to write unless the
untouched v3 input round-trips through that emitter byte for byte.  So a
rewritten baseline differs from the old one only by deleted lines, trailing
commas before them, and the version line.

Usage:
  tools/migrate_bench_v4.py BENCH_table1.json ...   rewrite files in place
  tools/migrate_bench_v4.py --check OLD NEW         exit 0 iff NEW equals OLD
                                                    with only the v4 keys
                                                    deleted and the version
                                                    bumped

Exit status: 0 = ok, 1 = check failed, 2 = usage / unreadable input.
"""

import argparse
import json
import sys


class RawNumber(str):
    """A JSON number kept as its source text, so re-emitting cannot reformat it."""


def load(text, raw_numbers=False):
    if raw_numbers:
        return json.loads(text, parse_int=RawNumber, parse_float=RawNumber)
    return json.loads(text)


def _escape(s):
    out = []
    for c in s:
        if c == '"':
            out.append('\\"')
        elif c == "\\":
            out.append("\\\\")
        elif c in "\b\f\n\r\t":
            out.append({"\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}[c])
        elif ord(c) < 0x20:
            out.append(f"\\u{ord(c):04x}")
        else:
            out.append(c)
    return "".join(out)


def emit(value, depth=0):
    """Serializes like obs::JsonWriter(pretty=true)."""
    if isinstance(value, dict):
        out = "{"
        for i, (key, member) in enumerate(value.items()):
            out += ("," if i else "") + "\n" + "  " * (depth + 1)
            out += f'"{_escape(key)}": ' + emit(member, depth + 1)
        if value:
            out += "\n" + "  " * depth
        return out + "}"
    if isinstance(value, list):
        return "[" + ", ".join(emit(v, depth + 1) for v in value) + "]"
    if isinstance(value, RawNumber):
        return str(value)
    if isinstance(value, str):
        return f'"{_escape(value)}"'
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    return json.dumps(value)


def migrate(doc):
    """Applies the v3 -> v4 deletions to a parsed report, in place."""
    version = doc.get("schema_version")
    if str(version) != "3":
        raise ValueError(f"expected schema_version 3, got {version!r}")
    doc["schema_version"] = RawNumber("4") if isinstance(version, RawNumber) else 4
    doc.pop("concurrency", None)

    def walk(node, key=None):
        if isinstance(node, dict):
            if key == "options":
                node.pop("lock_stripes", None)
            if key == "host_perf" and node.get("available") is False:
                node.pop("counters", None)
                node.pop("derived", None)
            for k, v in node.items():
                walk(v, k)
        elif isinstance(node, list):
            for v in node:
                walk(v, key)

    walk(doc)
    return doc


def rewrite(path):
    with open(path, encoding="utf-8") as f:
        text = f.read()
    doc = load(text, raw_numbers=True)
    if emit(doc) + "\n" != text:
        raise ValueError(f"{path}: not in JsonWriter's pretty layout; refusing to rewrite")
    with open(path, "w", encoding="utf-8") as f:
        f.write(emit(migrate(doc)) + "\n")


def check(old_path, new_path):
    with open(old_path, encoding="utf-8") as f:
        old = load(f.read())
    with open(new_path, encoding="utf-8") as f:
        new = load(f.read())
    expected = migrate(json.loads(json.dumps(old)))
    if expected != new:
        print(f"{new_path}: differs from {old_path} beyond the v4 deletions", file=sys.stderr)
        return 1
    print(f"{new_path}: equals {old_path} minus the v4 deletions (schema_version 3 -> 4)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="*", help="v3 reports to rewrite in place")
    parser.add_argument("--check", nargs=2, metavar=("OLD", "NEW"),
                        help="verify NEW is the v4 rewrite of OLD")
    args = parser.parse_args()
    if bool(args.files) == bool(args.check):
        parser.error("give either files to rewrite or --check OLD NEW")
    try:
        if args.check:
            return check(*args.check)
        for path in args.files:
            rewrite(path)
            print(f"rewrote {path} as schema v4")
    except (OSError, ValueError) as e:
        print(f"migrate_bench_v4: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
