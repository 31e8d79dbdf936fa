#!/usr/bin/env bash
# Docs gate (run by the CI docs job, usable locally):
#   1. every relative markdown link in docs/*.md and README.md resolves
#      to an existing file,
#   2. every `rpe_cli <subcommand>` named in README.md, docs/*.md or the
#      verify skill (.claude/skills/verify/SKILL.md) exists in the built
#      binary's --help output — a retired command left in any guide
#      fails — and
#   3. every code symbol docs/TRAINING.md, docs/SERVING.md,
#      docs/ROBUSTNESS.md, docs/NETWORK.md, docs/BENCHMARKS.md,
#      docs/CLI.md, docs/OBSERVABILITY.md, docs/ARCHITECTURE.md,
#      docs/PAPER_MAP.md and README.md reference in backticks still
#      exists somewhere under src/ (or bench/, tests/, tools/ for bench
#      rows, test files and CLI flags) — the guides must not drift from
#      the code.
#
# usage: scripts/check_docs.sh [path/to/rpe_cli]
set -u

cd "$(dirname "$0")/.."
RPE_CLI="${1:-./build/rpe_cli}"
failures=0

# --- 1. internal links -----------------------------------------------------
for doc in README.md docs/*.md; do
  dir=$(dirname "$doc")
  # Markdown inline links: capture the (target) part, strip anchors.
  while IFS= read -r target; do
    case "$target" in
      http://* | https://* | mailto:* | \#*) continue ;;
    esac
    path="${target%%#*}"
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ]; then
      echo "BROKEN LINK: $doc -> $target"
      failures=$((failures + 1))
    fi
  done < <(grep -oE '\[[^]]+\]\([^)]+\)' "$doc" | sed -E 's/^\[[^]]+\]\(([^)]+)\)$/\1/')
done

# --- 2. documented subcommands exist ---------------------------------------
if [ ! -x "$RPE_CLI" ]; then
  echo "rpe_cli binary not found/executable at $RPE_CLI"
  exit 1
fi
help_output=$("$RPE_CLI" --help)
if ! grep -qE '^### `rpe_cli [a-z-]+`' docs/CLI.md; then
  # Guard against the gate passing vacuously after a heading reformat.
  echo "NO SUBCOMMANDS EXTRACTED from docs/CLI.md (expected '### \`rpe_cli <cmd>\`' headings)"
  failures=$((failures + 1))
fi
# "<file>:<subcommand>" for every mention; a page title ("# rpe_cli
# reference") is prose, not a command.
mentions=$(for doc in README.md docs/*.md .claude/skills/verify/SKILL.md; do
  grep -vE '^# ' "$doc" | grep -oE 'rpe_cli [a-z][a-z-]*' |
    sed -E "s|^rpe_cli |$doc:|"
done | sort -u)
while IFS= read -r mention; do
  [ -z "$mention" ] && continue
  doc="${mention%%:*}"
  cmd="${mention#*:}"
  if ! printf '%s\n' "$help_output" | grep -qE "^  $cmd( |\$)"; then
    echo "UNKNOWN SUBCOMMAND: $doc names 'rpe_cli $cmd' but rpe_cli --help does not list it"
    failures=$((failures + 1))
  fi
done <<EOF
$mentions
EOF

# --- 3. guide symbols still exist ------------------------------------------
# Backticked tokens that look like code symbols — qualified names
# (`Class::Member`), CamelCase identifiers, or k-prefixed constants — must
# appear somewhere in the sources. Lowercase/prose tokens are skipped.
for guide in docs/TRAINING.md docs/SERVING.md docs/ROBUSTNESS.md \
  docs/NETWORK.md docs/BENCHMARKS.md docs/CLI.md docs/OBSERVABILITY.md \
  docs/ARCHITECTURE.md docs/PAPER_MAP.md README.md; do
  [ -f "$guide" ] || continue
  symbols=$(grep -oE '`[A-Za-z_][A-Za-z0-9_:()]*`' "$guide" |
    tr -d '\`' | sed 's/()$//' | sort -u)
  checked=0
  while IFS= read -r sym; do
    [ -z "$sym" ] && continue
    case "$sym" in
      *::*) ;;                # qualified name: check its last component
      k[A-Z]*) ;;             # constant
      [A-Z]*[a-z]*) ;;        # CamelCase type/function/bench row
      *) continue ;;          # prose-ish token
    esac
    checked=$((checked + 1))
    base="${sym##*::}"
    if ! grep -rqF "$base" src/ bench/ tests/ tools/; then
      echo "STALE SYMBOL: $guide references '$sym' but '$base' is not in src/, bench/, tests/ or tools/"
      failures=$((failures + 1))
    fi
  done <<EOF
$symbols
EOF
  if [ "$checked" -eq 0 ]; then
    # Guard against the gate passing vacuously after a formatting change.
    echo "NO SYMBOLS EXTRACTED from $guide (expected backticked identifiers)"
    failures=$((failures + 1))
  fi
done

if [ "$failures" -ne 0 ]; then
  echo "check_docs: $failures failure(s)"
  exit 1
fi
echo "check_docs: links resolve, documented subcommands exist, guide symbols are live"
