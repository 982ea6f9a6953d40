#!/usr/bin/env python3
"""Schema checker for the --json / --trace output of the bench binaries.

Stdlib-only (the repo's no-new-dependencies rule).  Validates the
schema-versioned envelope that bench/bench_flags.h emits, the per-entry
shapes that src/sim/serialize.cc writes, and (optionally) that every line
of a --trace JSONL file parses and carries a known event kind.

Event kinds are known from the document itself: the report envelope and
the trace and time-series header lines each carry "event_kinds", the wire
names the binary's obs::ToString(EventKind) wrote, and every "events" key or
trace "kind" must be one of them.

Usage:
  tools/check_bench_json.py report.json [report2.json ...]
  tools/check_bench_json.py --trace trace.jsonl report.json
  tools/check_bench_json.py --perfetto trace.perfetto.json
  tools/check_bench_json.py --timeseries windows.jsonl

Exit status 0 iff every file validates; failures print one line each.
"""

import argparse
import json
import sys

SCHEMA = "cpt-bench-report"
SCHEMA_VERSION = 6

# The three attribution dimensions serialize.cc emits, in order.
ATTRIBUTION_DIMS = ("by_segment", "by_page_class", "by_outcome")

ACCESS_FIELDS = {
    "workload": str,
    "avg_lines_per_miss": (int, float),
    "denominator_misses": int,
    "effective_misses": int,
    "trace_refs": int,
    "miss_ratio": (int, float),
    "pt_bytes": int,
    "page_faults": int,
    "rng_seed": int,
    "timing": dict,
    "options": dict,
}

SIZE_FIELDS = {
    "workload": str,
    "bytes": int,
    "hashed_bytes": int,
    "normalized": (int, float),
    "census": dict,
    "rng_seed": int,
    "wall_seconds": (int, float),
    "options": dict,
}

OPTION_FIELDS = {
    "pt_kind", "tlb_kind", "tlb_entries", "subblock_factor", "num_buckets",
    "line_size", "phys_frames",
}


class Failure(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise Failure(msg)


def event_kinds_of(header, where):
    """The set of event-kind wire names a document's header declares."""
    kinds = header.get("event_kinds")
    require(isinstance(kinds, list) and kinds
            and all(isinstance(k, str) and k for k in kinds),
            f"{where}: missing event_kinds list")
    require(len(set(kinds)) == len(kinds), f"{where}: duplicate event_kinds")
    return set(kinds)


def check_fields(obj, fields, where):
    for name, types in fields.items():
        require(name in obj, f"{where}: missing field '{name}'")
        require(isinstance(obj[name], types),
                f"{where}: field '{name}' has type {type(obj[name]).__name__}")


def check_options(opts, where):
    missing = OPTION_FIELDS - opts.keys()
    require(not missing, f"{where}: options missing {sorted(missing)}")


def check_timing(timing, where):
    for field in ("wall_seconds", "refs_per_sec", "misses_per_sec"):
        require(isinstance(timing.get(field), (int, float)),
                f"{where}: timing missing numeric '{field}'")


def check_attribution(attr, where):
    """Shape + reconciliation: each dimension partitions the counted walks,
    so its per-cell walks/lines sums must equal the section totals."""
    for field in ("walks", "lines", "steps"):
        require(isinstance(attr.get(field), int),
                f"{where}: attribution missing int '{field}'")
    for dim in ATTRIBUTION_DIMS:
        cells = attr.get(dim)
        require(isinstance(cells, list), f"{where}: attribution missing '{dim}'")
        for c, cell in enumerate(cells):
            for field in ("walks", "lines", "steps"):
                require(isinstance(cell.get(field), int),
                        f"{where}: {dim}[{c}] missing int '{field}'")
            require(isinstance(cell.get("label"), str) and cell["label"],
                    f"{where}: {dim}[{c}] missing label")
        for field in ("walks", "lines"):
            total = sum(cell[field] for cell in cells)
            require(total == attr[field],
                    f"{where}: {dim} {field} sum {total} != total {attr[field]}")


def check_measurement_entry(entry, i, event_kinds):
    where = f"entries[{i}] ({entry['type']}/{entry.get('series', '?')})"
    require("series" in entry, f"{where}: missing 'series'")
    require("measurement" in entry, f"{where}: missing 'measurement'")
    m = entry["measurement"]
    fields = ACCESS_FIELDS if entry["type"] == "access" else SIZE_FIELDS
    check_fields(m, fields, where)
    check_options(m["options"], where)
    if entry["type"] == "access":
        check_timing(m["timing"], where)
        misses = m["effective_misses"]
        split = m.get("block_misses", 0) + m.get("subblock_misses", 0)
        require(split <= misses,
                f"{where}: block + subblock misses {split} exceed effective misses {misses}")
        # Only linear tables get a full-size reference TLB (Section 6.1's
        # reserved entries); every other table normalizes by its own misses.
        if not str(m["options"]["pt_kind"]).startswith("linear"):
            require(m["denominator_misses"] == misses,
                    f"{where}: denominator_misses {m['denominator_misses']} != "
                    f"effective_misses {misses} without a reference TLB")
        for kind in m.get("events", {}):
            require(kind in event_kinds, f"{where}: unknown event kind '{kind}'")
        for histo in m.get("histograms", {}).values():
            require({"total", "mean", "overflow", "counts"} <= histo.keys(),
                    f"{where}: malformed histogram")
        if "attribution" in m:
            check_attribution(m["attribution"], where)


def check_table_entry(entry, i):
    where = f"entries[{i}] (table)"
    require("title" in entry, f"{where}: missing 'title'")
    table = entry.get("table")
    require(isinstance(table, dict), f"{where}: missing 'table'")
    cols = table.get("columns")
    rows = table.get("rows")
    require(isinstance(cols, list) and cols, f"{where}: missing columns")
    require(isinstance(rows, list), f"{where}: missing rows")
    for r, row in enumerate(rows):
        require(len(row) == len(cols),
                f"{where}: row {r} has {len(row)} cells for {len(cols)} columns")


def check_report_doc(doc):
    require(doc.get("schema") == SCHEMA, f"schema is {doc.get('schema')!r}")
    require(doc.get("schema_version") == SCHEMA_VERSION,
            f"schema_version is {doc.get('schema_version')!r}")
    require(isinstance(doc.get("bench"), str) and doc["bench"],
            "missing bench name")
    event_kinds = event_kinds_of(doc, "report")
    entries = doc.get("entries")
    require(isinstance(entries, list) and entries, "empty entries array")
    for i, entry in enumerate(entries):
        require(isinstance(entry.get("type"), str), f"entries[{i}]: missing type")
        if entry["type"] in ("access", "size"):
            check_measurement_entry(entry, i, event_kinds)
        elif entry["type"] == "table":
            check_table_entry(entry, i)
        # Other custom entry types (rangeops, ...) only need type + series.
        else:
            require("series" in entry, f"entries[{i}]: missing 'series'")
    # Every report carries an aggregate throughput section; the timeseries
    # summary appears iff --timeseries ran.
    tp = doc.get("throughput")
    require(isinstance(tp, dict), "missing throughput section")
    require(isinstance(tp.get("refs"), int), "throughput missing int refs")
    for field in ("wall_seconds", "refs_per_sec"):
        require(isinstance(tp.get(field), (int, float)),
                f"throughput missing numeric '{field}'")
    if "timeseries" in doc:
        ts = doc["timeseries"]
        require(isinstance(ts.get("window_refs"), int) and ts["window_refs"] > 0,
                "timeseries missing positive window_refs")
        for field in ("total_refs", "windows"):
            require(isinstance(ts.get(field), int),
                    f"timeseries missing int '{field}'")
    return len(entries)


def check_report(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return check_report_doc(doc)


def check_trace(path):
    n = 0
    with open(path, encoding="utf-8") as f:
        header = json.loads(f.readline())
        require(header.get("schema") == "cpt-bench-trace", "bad trace header")
        require(header.get("schema_version") == SCHEMA_VERSION,
                f"trace schema_version is {header.get('schema_version')!r}")
        event_kinds = event_kinds_of(header, "trace header")
        for lineno, line in enumerate(f, start=2):
            rec = json.loads(line)
            if rec.get("type") == "context":
                require("series" in rec and "rng_seed" in rec,
                        f"line {lineno}: malformed context record")
                continue
            require(rec.get("kind") in event_kinds,
                    f"line {lineno}: unknown kind {rec.get('kind')!r}")
            n += 1
    return n


def check_timeseries_lines(lines):
    """Validates a --timeseries JSONL document given as parsed records.

    Layout: one header, then per measurement a context line declaring its
    window count followed by exactly that many window lines with contiguous
    0-based indexes.  Only a section's final window may be partial.
    """
    require(lines, "empty timeseries file")
    header = lines[0]
    require(header.get("schema") == "cpt-bench-timeseries",
            f"bad timeseries header schema {header.get('schema')!r}")
    require(header.get("schema_version") == SCHEMA_VERSION,
            f"timeseries schema_version is {header.get('schema_version')!r}")
    window_refs = header.get("window_refs")
    require(isinstance(window_refs, int) and window_refs > 0,
            "timeseries header missing positive window_refs")
    event_kinds = event_kinds_of(header, "timeseries header")

    n_windows = 0
    expected = None  # Declared window count of the open section.
    seen = 0
    def close_section(lineno):
        if expected is not None:
            require(seen == expected,
                    f"line {lineno}: section declared {expected} windows, "
                    f"got {seen}")
    for lineno, rec in enumerate(lines[1:], start=2):
        kind = rec.get("type")
        if kind == "context":
            close_section(lineno)
            require("series" in rec and isinstance(rec.get("windows"), int),
                    f"line {lineno}: malformed timeseries context")
            expected, seen = rec["windows"], 0
        elif kind == "window":
            require(expected is not None,
                    f"line {lineno}: window before any context line")
            require(rec.get("window") == seen,
                    f"line {lineno}: window index {rec.get('window')} != {seen}")
            for field in ("start_ref", "refs", "lines"):
                require(isinstance(rec.get(field), int),
                        f"line {lineno}: window missing int '{field}'")
            for field in ("miss_rate", "lines_per_miss"):
                require(isinstance(rec.get(field), (int, float)),
                        f"line {lineno}: window missing numeric '{field}'")
            require(0 < rec["refs"] <= window_refs,
                    f"line {lineno}: window refs {rec['refs']} outside "
                    f"(0, {window_refs}]")
            if seen < expected - 1:
                require(rec["refs"] == window_refs,
                        f"line {lineno}: non-final window is partial "
                        f"({rec['refs']} < {window_refs})")
            events = rec.get("events", {})
            require(isinstance(events, dict),
                    f"line {lineno}: window events not an object")
            for name in events:
                require(name in event_kinds,
                        f"line {lineno}: unknown event kind '{name}'")
            seen += 1
            n_windows += 1
        else:
            raise Failure(f"line {lineno}: unknown record type {kind!r}")
    close_section(len(lines))
    return n_windows


def check_timeseries(path):
    with open(path, encoding="utf-8") as f:
        lines = [json.loads(line) for line in f if line.strip()]
    return check_timeseries_lines(lines)


def check_perfetto(path):
    """Validates a --perfetto file as well-formed Chrome trace-event JSON."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    require(isinstance(events, list) and events, "missing traceEvents array")
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        ph = ev.get("ph")
        require(isinstance(ph, str) and len(ph) == 1, f"{where}: bad ph")
        require(isinstance(ev.get("name"), str) and ev["name"],
                f"{where}: missing name")
        require(isinstance(ev.get("pid"), int), f"{where}: missing pid")
        if ph != "M":  # Metadata events have no timestamp.
            require(isinstance(ev.get("ts"), int), f"{where}: missing ts")
        if ph == "X":
            require(isinstance(ev.get("dur"), int) and ev["dur"] > 0,
                    f"{where}: complete event without positive dur")
        if ph == "C":
            require(isinstance(ev.get("args"), dict) and ev["args"],
                    f"{where}: counter event without args")
        if ph == "i":
            require(ev.get("s") in (None, "t", "p", "g"), f"{where}: bad scope")
    return len(events)


def _self_test_sections():
    """Synthetic-document round trips for the report sections: each valid doc
    must pass, each deliberately broken variant must raise Failure."""
    kinds = ["tlb_hit", "tlb_miss", "walk_step", "walk_end"]
    valid = {
        "schema": SCHEMA, "schema_version": SCHEMA_VERSION, "bench": "t",
        "event_kinds": kinds, "trace_len_override": 0,
        "entries": [{
            "type": "access", "series": "clustered",
            "measurement": {
                "workload": "w", "avg_lines_per_miss": 1.5,
                "denominator_misses": 2, "effective_misses": 2,
                "trace_refs": 3000, "miss_ratio": 0.001, "pt_bytes": 4096,
                "page_faults": 0, "rng_seed": 1,
                "timing": {"wall_seconds": 1.5e-4, "refs_per_sec": 2e7,
                           "misses_per_sec": 1.3e4},
                "options": dict.fromkeys(OPTION_FIELDS, 0),
                "events": {"tlb_hit": 2998, "tlb_miss": 2},
            },
        }],
        "throughput": {"refs": 3000, "wall_seconds": 1.5e-4,
                       "refs_per_sec": 2e7},
        "timeseries": {"window_refs": 512, "total_refs": 3000, "windows": 6},
    }
    checks = [("valid report", valid, None)]

    import copy
    broken = copy.deepcopy(valid)
    del broken["throughput"]["refs_per_sec"]
    checks.append(("throughput missing refs_per_sec", broken, "refs_per_sec"))
    broken = copy.deepcopy(valid)
    del broken["entries"][0]["measurement"]["timing"]["misses_per_sec"]
    checks.append(("timing missing misses_per_sec", broken, "misses_per_sec"))
    broken = copy.deepcopy(valid)
    del broken["event_kinds"]
    checks.append(("report without event_kinds", broken, "event_kinds"))
    broken = copy.deepcopy(valid)
    broken["entries"][0]["measurement"]["events"]["tlb_mis"] = 1
    checks.append(("undeclared event kind", broken, "unknown event kind"))
    broken = copy.deepcopy(valid)
    broken["entries"][0]["measurement"].update(block_misses=2, subblock_misses=1)
    checks.append(("miss split above effective misses", broken, "exceed effective misses"))
    broken = copy.deepcopy(valid)
    broken["entries"][0]["measurement"]["denominator_misses"] = 3
    checks.append(("denominator without a reference TLB", broken, "without a reference TLB"))

    for label, doc, expect in checks:
        try:
            check_report_doc(doc)
            ok = expect is None
            err = ""
        except Failure as e:
            ok = expect is not None and expect in str(e)
            err = str(e)
        if not ok:
            raise Failure(f"self-test '{label}': "
                          + (f"unexpected error {err!r}" if err
                             else "broken doc passed validation"))

    ts_valid = [
        {"schema": "cpt-bench-timeseries", "schema_version": SCHEMA_VERSION,
         "bench": "t", "window_refs": 4, "event_kinds": kinds, "type": "header"},
        {"type": "context", "series": "a", "workload": "w", "windows": 2},
        {"type": "window", "window": 0, "start_ref": 0, "refs": 4, "lines": 2,
         "miss_rate": 0.25, "lines_per_miss": 2.0, "events": {"tlb_miss": 1}},
        {"type": "window", "window": 1, "start_ref": 4, "refs": 3, "lines": 0,
         "miss_rate": 0.0, "lines_per_miss": 0.0, "events": {}},
    ]
    if check_timeseries_lines(ts_valid) != 2:
        raise Failure("self-test: timeseries window count wrong")
    ts_broken = [dict(rec) for rec in ts_valid]
    ts_broken[3]["window"] = 5  # Non-contiguous index.
    try:
        check_timeseries_lines(ts_broken)
        raise Failure("self-test: non-contiguous window index passed")
    except Failure as e:
        if "window index" not in str(e):
            raise
    ts_partial = [dict(rec) for rec in ts_valid]
    ts_partial[2]["refs"] = 2  # Partial window that is not the section's last.
    try:
        check_timeseries_lines(ts_partial)
        raise Failure("self-test: early partial window passed")
    except Failure as e:
        if "partial" not in str(e):
            raise


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("reports", nargs="*", help="--json report files")
    parser.add_argument("--trace", action="append", default=[],
                        help="--trace JSONL files")
    parser.add_argument("--perfetto", action="append", default=[],
                        help="--perfetto Chrome trace-event files")
    parser.add_argument("--timeseries", action="append", default=[],
                        help="--timeseries windowed JSONL files")
    parser.add_argument("--self-test", action="store_true",
                        help="round-trip the report and time-series validators "
                             "over synthetic documents, then exit")
    args = parser.parse_args()
    if (not args.self_test and not args.reports and not args.trace
            and not args.perfetto and not args.timeseries):
        parser.error("nothing to check")

    if args.self_test:
        try:
            _self_test_sections()
        except Failure as e:
            print(f"FAIL self-test: {e}")
            return 1
        print("OK   self-test: event-kind/timing/throughput/timeseries "
              "validators round-trip")
        return 0

    failed = False
    for path in args.reports:
        try:
            n = check_report(path)
            print(f"OK   {path}: {n} entries")
        except (Failure, json.JSONDecodeError, OSError) as e:
            print(f"FAIL {path}: {e}")
            failed = True
    for path in args.trace:
        try:
            n = check_trace(path)
            print(f"OK   {path}: {n} events")
        except (Failure, json.JSONDecodeError, OSError) as e:
            print(f"FAIL {path}: {e}")
            failed = True
    for path in args.perfetto:
        try:
            n = check_perfetto(path)
            print(f"OK   {path}: {n} trace events")
        except (Failure, json.JSONDecodeError, OSError) as e:
            print(f"FAIL {path}: {e}")
            failed = True
    for path in args.timeseries:
        try:
            n = check_timeseries(path)
            print(f"OK   {path}: {n} windows")
        except (Failure, json.JSONDecodeError, OSError) as e:
            print(f"FAIL {path}: {e}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
