#!/usr/bin/env bash
# Lists the nlft:: functions that the module libraries (libnlft_*.a) define
# but that no shipped program keeps, and fails on any that is not a
# deliberate survivor.
#
# The shipped programs are every executable under bench/, examples/ and
# tools/, plus nlft_perfbench built from perfbench/ into its own build
# directory. All of them are built at -O0 with -ffunction-sections
# -fdata-sections and linked with -Wl,--gc-sections, so the linker keeps
# exactly the functions a program can reach. A library function that no
# program keeps is called by tests at most. Functions are compared by
# qualified name: a program that keeps one overload or template instance
# reaches the name, and a lambda or local class counts as part of the
# function that encloses it. std:: template instantiations and other
# non-nlft symbols are ignored.
#
# tools/unreached_allowlist.txt names the survivors, one per line: the
# qualified function name (without parameters or template arguments; a name
# ending in "::" covers every member of that class or namespace), then the
# reason it stays. An allowlist entry that no unreached function matches is
# stale and fails the run as well.
#
#   tools/unreached_entry_points.sh
#
# Builds into build-unreached/ at the repository root (nothing under
# perfbench/ is written). Exit status: 0 when every unreached function is on
# the allowlist and every entry is used, 1 otherwise.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/build-unreached
allowlist=$root/tools/unreached_allowlist.txt
jobs=$(nproc)

# Build type "None" adds no optimisation flags of its own.
config=(-G "Unix Makefiles" -DCMAKE_BUILD_TYPE=None
        "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
        "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

cmake -S "$root" -B "$out/nlft" "${config[@]}" > /dev/null
for dir in bench-artifacts examples tools; do
  make -s -C "$out/nlft/$dir" -j "$jobs" > /dev/null
done
cmake -S "$root/perfbench" -B "$out/perfbench" "${config[@]}" > /dev/null
make -s -C "$out/perfbench" -j "$jobs" nlft_perfbench > /dev/null

mapfile -t programs < <(find "$out/nlft/bench" "$out/nlft/examples" "$out/nlft/tools" \
                          -maxdepth 1 -type f -perm -u+x | sort)
programs+=("$out/perfbench/nlft_perfbench")
libraries=("$out"/nlft/src/libnlft_*.a)

# Defined functions (text symbols), demangled, one per line.
functions() {
  nm -C --defined-only "$@" | sed -nE 's/^[0-9a-f]+ [TtW] //p' | sort -u
}
functions "${libraries[@]}" > "$out/library_functions.txt"
functions "${programs[@]}" > "$out/program_functions.txt"
echo "${#programs[@]} programs, ${#libraries[@]} libraries" >&2

python3 - "$out/library_functions.txt" "$out/program_functions.txt" "$allowlist" <<'PY'
import re
import sys

OPERATORS = re.compile(r"operator(\(\)|\[\]|<=>|<<=|>>=|<<|>>|<=|>=|->\*|->|<|>)")
ABI_TAG = re.compile(r"\[abi:[^\]]*\]")


def qualified_name(symbol):
    """nlft::a::B::f for 'R nlft::a::B<T>::f<U>(args)::{lambda()#1}::operator()() const'."""
    text = ABI_TAG.sub("", symbol).replace("(anonymous namespace)", "{anonymous}")
    text = OPERATORS.sub(lambda m: "operator" + "@" * len(m.group(1)), text)
    depth = 0
    name_start = 0
    for i, ch in enumerate(text):
        if ch in "<{":
            depth += 1
        elif ch in ">}":
            depth -= 1
        elif depth == 0 and ch == " ":
            name_start = i + 1  # what came before was the return type
        elif depth == 0 and ch == "(":
            text = text[name_start:i]
            break
    # Drop template arguments.
    plain, depth = [], 0
    for ch in text:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif depth == 0:
            plain.append(ch)
    return "".join(plain)


def read_lines(path):
    with open(path, encoding="utf-8") as stream:
        return [line.rstrip("\n") for line in stream]


library, programs, allowlist_path = sys.argv[1:4]
kept = set(read_lines(programs))
unreached = sorted({qualified_name(s) for s in read_lines(library) if s not in kept})
unreached = [name for name in unreached if name.startswith("nlft::")]
# A function that some program keeps under another overload or instantiation
# is reached; only names no program keeps at all are reported.
kept_names = {qualified_name(s) for s in kept}
unreached = [name for name in unreached if name not in kept_names]

entries = []
failed = False
for number, line in enumerate(read_lines(allowlist_path), start=1):
    if not line.strip() or line.lstrip().startswith("#"):
        continue
    fields = line.split(None, 1)
    if len(fields) < 2:
        print(f"allowlist line {number}: '{fields[0]}' gives no reason")
        failed = True
        continue
    entries.append(fields[0])


def matches(entry, name):
    return name == entry or (entry.endswith("::") and name.startswith(entry))


used = set()
missing = []
for name in unreached:
    hits = [entry for entry in entries if matches(entry, name)]
    used.update(hits)
    if not hits:
        missing.append(name)
for name in missing:
    print(f"unreached: {name}")
for entry in entries:
    if entry not in used:
        print(f"stale allowlist entry: {entry}")
failed = failed or bool(missing) or len(used) < len(entries)
print(f"{len(unreached)} unreached nlft:: functions, {len(unreached) - len(missing)} "
      "on the allowlist", file=sys.stderr)
sys.exit(1 if failed else 0)
PY
