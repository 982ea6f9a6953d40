#!/usr/bin/env python3
"""Golden-file tests for tools/cpt_lint.py.

Each fixture under tests/lint/fixtures/ carries seeded contract violations;
tests/lint/expected/<fixture>.expected lists the findings the linter must
produce, one `line:rule` per line (empty file = the linter must stay silent,
which is how the suppression fixture is pinned).  On top of the goldens this
runner exercises --fix (autofixed files re-lint clean) and the exit codes.

Run directly or through ctest (`lint_fixtures`).  Exits non-zero with a
unified diff of expected-vs-actual on any mismatch.
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TEST_DIR = Path(__file__).resolve().parent
REPO_ROOT = TEST_DIR.parents[1]
LINT = REPO_ROOT / "tools" / "cpt_lint.py"
FIXTURES = TEST_DIR / "fixtures"
EXPECTED = TEST_DIR / "expected"

FAILURES = []


def fail(name, message):
    FAILURES.append(name)
    print(f"FAIL {name}: {message}")


def run_lint(*argv, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, str(LINT), *argv],
        cwd=cwd, capture_output=True, text=True, check=False)


def lint_findings(path, *extra):
    proc = run_lint("--ignore-scope", "--json", *extra, str(path))
    try:
        data = json.loads(proc.stdout)
    except json.JSONDecodeError:
        raise AssertionError(
            f"non-JSON linter output for {path}:\n{proc.stdout}\n{proc.stderr}")
    return proc.returncode, data["findings"]


def golden_tests():
    fixtures = sorted(FIXTURES.glob("*.cc")) + sorted(FIXTURES.glob("*.h"))
    assert fixtures, f"no fixtures found under {FIXTURES}"
    for fixture in fixtures:
        name = f"golden/{fixture.name}"
        golden = EXPECTED / (fixture.name + ".expected")
        if not golden.exists():
            fail(name, f"missing golden file {golden}")
            continue
        want = [ln for ln in golden.read_text().splitlines() if ln.strip()]
        code, findings = lint_findings(fixture)
        got = [f"{f['line']}:{f['rule']}" for f in findings]
        if got != want:
            fail(name, "findings mismatch\n  expected: " + repr(want) +
                 "\n  actual:   " + repr(got))
            continue
        want_code = 1 if want else 0
        if code != want_code:
            fail(name, f"exit code {code}, expected {want_code}")
            continue
        print(f"ok   {name} ({len(want)} findings)")


def fix_test():
    """--fix rewrites raw assert()/<cassert>; the fixed file re-lints clean."""
    name = "fix/raw_assert"
    with tempfile.TemporaryDirectory() as tmp:
        victim = Path(tmp) / "raw_assert.cc"
        shutil.copy(FIXTURES / "raw_assert.cc", victim)
        proc = run_lint("--ignore-scope", "--fix",
                        "--rules", "check-macro-hygiene",
                        "--root", tmp, str(victim))
        del proc  # Exit code reflects pre-fix findings; re-lint decides.
        text = victim.read_text()
        if "CPT_DCHECK(v >= 0)" not in text:
            return fail(name, f"assert not rewritten:\n{text}")
        if "#include <cassert>" in text:
            return fail(name, f"<cassert> include not removed:\n{text}")
        # Only the (unfixable) raw aborts may remain.
        code, findings = lint_findings(victim, "--root", tmp,
                                       "--rules", "check-macro-hygiene")
        leftover = {f["message"].split(";")[0] for f in findings}
        if leftover != {'raw abort()'}:
            return fail(name, f"unexpected post-fix findings: {findings}")
    print(f"ok   {name}")


def nodiscard_fix_test():
    """--fix inserts [[nodiscard]] and the result re-lints clean."""
    name = "fix/nodiscard"
    with tempfile.TemporaryDirectory() as tmp:
        victim = Path(tmp) / "nodiscard.h"
        shutil.copy(FIXTURES / "nodiscard.h", victim)
        run_lint("--ignore-scope", "--fix",
                 "--rules", "nodiscard-query", "--root", tmp, str(victim))
        text = victim.read_text()
        if "[[nodiscard]] Result Lookup(" not in text:
            return fail(name, f"[[nodiscard]] not inserted:\n{text}")
        code, findings = lint_findings(victim, "--root", tmp,
                                       "--rules", "nodiscard-query")
        if code != 0 or findings:
            return fail(name, f"post-fix findings remain: {findings}")
    print(f"ok   {name}")


def fix_idempotency_test():
    """--fix is a fixed point: a second pass changes nothing, byte for byte."""
    name = "fix/idempotent"
    with tempfile.TemporaryDirectory() as tmp:
        victims = []
        for fixture in ("raw_assert.cc", "nodiscard.h"):
            victim = Path(tmp) / fixture
            shutil.copy(FIXTURES / fixture, victim)
            victims.append(victim)
        args = ("--ignore-scope", "--fix", "--root", tmp,
                *(str(v) for v in victims))
        run_lint(*args)
        first = {v.name: v.read_bytes() for v in victims}
        run_lint(*args)
        second = {v.name: v.read_bytes() for v in victims}
        if first != second:
            changed = [n for n in first if first[n] != second[n]]
            return fail(name, f"second --fix pass rewrote {changed}")
    print(f"ok   {name}")


def exit_code_test():
    """0 = clean, 1 = findings, 2 = internal error — never conflated."""
    name = "exit/codes"
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean.cc"
        clean.write_text("namespace fx {\nint Identity(int v) { return v; }\n"
                         "}  // namespace fx\n")
        proc = run_lint("--ignore-scope", str(clean))
        if proc.returncode != 0:
            return fail(name, f"clean file exited {proc.returncode}:\n{proc.stdout}")
        proc = run_lint("--ignore-scope",
                        str(FIXTURES / "determinism.cc"))
        if proc.returncode != 1:
            return fail(name, f"findings exited {proc.returncode}, want 1")
        # A suppression naming no rule is a finding even on an otherwise
        # clean file, through the default (gating) path.
        stale = Path(tmp) / "stale.cc"
        stale.write_text(clean.read_text() + "// cpt-lint: allow(no-such-rule)\n")
        proc = run_lint("--root", tmp, str(stale))
        if proc.returncode != 1 or "unknown-suppression" not in proc.stdout:
            return fail(name, f"unknown-rule suppression exited "
                              f"{proc.returncode}, want 1:\n{proc.stdout}")
        # An unreadable input is an internal error, not a lint verdict.
        garbled = Path(tmp) / "garbled.cc"
        garbled.write_bytes(b"int x = \xff\xfe;\n")
        proc = run_lint("--ignore-scope", str(garbled))
        if proc.returncode != 2:
            return fail(name, f"unreadable input exited {proc.returncode}, want 2")
        if "internal error" not in proc.stderr:
            return fail(name, f"missing internal-error diagnostic:\n{proc.stderr}")
    print(f"ok   {name}")


def timing_keys_test():
    """Shared parses are accounted once, under the file-parse key."""
    name = "timing/shared-parse"
    proc = run_lint("--ignore-scope", "--json",
                    str(FIXTURES / "walk_protocol.cc"))
    data = json.loads(proc.stdout)
    timing = data.get("rule_timing_ms", {})
    if "file-parse" not in timing:
        return fail(name, f"missing rule_timing_ms key file-parse: {timing}")
    if timing["file-parse"] <= 0:
        return fail(name, f"file-parse not accounted: {timing}")
    print(f"ok   {name}")


def main():
    golden_tests()
    fix_test()
    nodiscard_fix_test()
    fix_idempotency_test()
    exit_code_test()
    timing_keys_test()
    if FAILURES:
        print(f"\n{len(FAILURES)} lint fixture test(s) failed")
        return 1
    print("\nall lint fixture tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
