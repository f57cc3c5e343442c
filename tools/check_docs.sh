#!/usr/bin/env bash
# Documentation hygiene check, registered with ctest as `docs_check`.
#
# Scans the repo's own prose docs for rot:
#   1. relative markdown links ([text](path)) must point at files or
#      directories that exist, and
#   2. backtick-quoted repository paths (`src/...`, `tests/...`, ...) must
#      still exist — glob forms like `src/net/channel.*` are resolved with
#      pathname expansion,
#   3. every metric the serving layer exports (GetCounter/GetGauge/
#      GetHistogram literals plus the SocketCounter/ServerCounter/
#      HttpCounter wrappers in src/net/socket_link.cc, src/core/server.cc
#      and src/obs/telemetry_http.cc), and every "bgv.noise.*" gauge
#      literal anywhere under src/, must appear in the README's metric
#      inventory,
#   4. every MessageType enumerator in src/net/frame.h must appear in
#      PROTOCOL.md's socket-transport section, and
#   5. every admin endpoint the telemetry server registers
#      (RegisterHandler("/...") in src/obs/telemetry_http.cc) must appear
#      in OPERATIONS.md's endpoint table, and
#   6. every metric an OPERATIONS.md alert rule (`expr:`) watches must be
#      exported by some src/ file other than src/core/session.cc — no
#      server binary runs the in-process session, so an alert on a
#      session-only metric can never fire, and
#   7. every flight-record phase that code under src/ records (declared
#      as `constexpr char k...Phase[] = "name"`, or a literal passed to
#      FlightRecord::AddToPhase) must appear, backticked, in OPERATIONS.md
#      "The flight recorder", so an operator reading /flightz can look
#      every phase up.
#
# Only the hand-written docs are scanned; SNIPPETS.md and PAPERS.md quote
# other repositories and would produce false positives.
set -u

cd "$(cd "$(dirname "$0")/.." && pwd)" || exit 1

DOCS="README.md DESIGN.md PROTOCOL.md EXPERIMENTS.md ROADMAP.md CONTRIBUTING.md OPERATIONS.md"
fail=0

exists_path() {
  tok="$1"
  [ -e "$tok" ] && return 0
  # Glob references (src/net/channel.*) and stem references (src/common/trace)
  compgen -G "$tok" > /dev/null 2>&1 && return 0
  compgen -G "${tok}.*" > /dev/null 2>&1 && return 0
  return 1
}

for doc in $DOCS; do
  [ -f "$doc" ] || continue

  # 1. Relative markdown links.
  while IFS= read -r target; do
    case "$target" in
      http://* | https://* | mailto:* | "#"*) continue ;;
    esac
    lp="${target%%#*}"
    [ -z "$lp" ] && continue
    if ! exists_path "$lp"; then
      echo "$doc: broken link -> $target"
      fail=1
    fi
  done < <(grep -o '\[[^][]*\]([^()]*)' "$doc" | sed 's/.*(\(.*\))/\1/')

  # 2. Backticked repository paths.
  while IFS= read -r tok; do
    if ! exists_path "$tok"; then
      echo "$doc: stale path \`$tok\`"
      fail=1
    fi
  done < <(grep -o '`[^`]*`' "$doc" | tr -d '`' \
             | grep -E '^(src|tests|bench|tools|examples|data)/[A-Za-z0-9_./*-]*$' \
             | sort -u)
done

# 3. Serving-layer metric names must be documented in the README inventory.
#    Direct Get{Counter,Gauge,Histogram}("...") literals export the name
#    verbatim; ServerCounter("...") is a passthrough; SocketCounter("...")
#    prefixes "net.socket.". Noise gauges are set by the parties and the
#    client rather than the serving layer, so any "bgv.noise.*" literal
#    under src/ counts too.
metric_sources="src/net/socket_link.cc src/core/server.cc src/obs/telemetry_http.cc"
while IFS= read -r metric; do
  [ -z "$metric" ] && continue
  if ! grep -qF "\`$metric\`" README.md; then
    echo "README.md: undocumented metric \`$metric\` (exported under src/)"
    fail=1
  fi
done < <(
  {
    grep -hoE 'Get(Counter|Gauge|Histogram)\("[^"]+"\)' $metric_sources \
      | sed 's/.*("\(.*\)")/\1/'
    grep -hoE 'ServerCounter\("[^"]+"\)' $metric_sources \
      | sed 's/.*("\(.*\)")/\1/'
    grep -hoE 'SocketCounter\("[^"]+"\)' $metric_sources \
      | sed 's/.*("\(.*\)")/net.socket.\1/'
    grep -hoE 'HttpCounter\("[^"]+"\)' $metric_sources \
      | sed 's/.*("\(.*\)")/\1/'
    grep -rhoE '"bgv\.noise\.[a-z0-9_.]+"' src | tr -d '"'
  } | sort -u
)

# 5. Every admin endpoint must be documented in OPERATIONS.md.
while IFS= read -r endpoint; do
  [ -z "$endpoint" ] && continue
  if ! grep -qF "\`$endpoint\`" OPERATIONS.md; then
    echo "OPERATIONS.md: undocumented admin endpoint \`$endpoint\` (registered in src/obs/telemetry_http.cc)"
    fail=1
  fi
done < <(grep -A1 'RegisterHandler(' src/obs/telemetry_http.cc \
           | grep -oE '"/[^"]+"' | tr -d '"' | sort -u)

# 6. Alert rules must watch metrics a server binary exports. A metric is
#    exported when its name appears as a string literal in a src/ file
#    other than src/core/session.cc (SocketCounter/FaultCounter literals
#    get their net.socket./net.faults. prefixes); names are compared in
#    Prometheus form, dots as underscores, with histogram series
#    suffixes stripped.
exported_metrics=$(
  files=$(find src -name '*.cc' -o -name '*.h' | grep -vx 'src/core/session.cc')
  {
    grep -hoE '"[a-z][a-z0-9_.]*"' $files | tr -d '"'
    grep -hoE 'SocketCounter\("[^"]+"\)' $files \
      | sed 's/.*("\(.*\)")/net.socket.\1/'
    grep -hoE 'FaultCounter\("[^"]+"\)' $files \
      | sed 's/.*("\(.*\)")/net.faults.\1/'
  } | tr '.' '_' | sort -u
)
promql_words=" rate irate increase delta sum avg min max count by without on ignoring and or unless offset histogram_quantile "
while IFS= read -r metric; do
  [ -z "$metric" ] && continue
  case "$promql_words" in *" $metric "*) continue ;; esac
  base="$metric"
  for suffix in _bucket _sum _count _quantiles; do base="${base%"$suffix"}"; done
  if ! grep -qxF -e "$metric" -e "$base" <<< "$exported_metrics"; then
    echo "OPERATIONS.md: alert expression watches \`$metric\`, which no server binary exports"
    fail=1
  fi
done < <(sed -n 's/^[[:space:]]*expr:[[:space:]]*//p' OPERATIONS.md \
           | sed 's/{[^}]*}//g' | grep -oE '[A-Za-z0-9_.]+' \
           | grep -E '^[A-Za-z_]' | sort -u)

# 7. Every recorded flight-record phase must be documented in OPERATIONS.md
#    "The flight recorder" (the section up to the next "## " heading).
flight_section=$(sed -n '/^### The flight recorder/,/^## /p' OPERATIONS.md)
phases=$(
  {
    grep -rhoE 'k[A-Za-z]+Phase\[\] = "[^"]+"' src | sed 's/.*"\(.*\)"/\1/'
    grep -rhoE 'AddToPhase\("[^"]+"' src | sed 's/.*("\(.*\)"/\1/'
  } | sort -u
)
if [ -z "$phases" ]; then
  echo "check_docs: found no flight-record phase under src/ (did the k...Phase[] convention change?)"
  fail=1
fi
while IFS= read -r phase; do
  [ -z "$phase" ] && continue
  if ! grep -qF "\`$phase\`" <<< "$flight_section"; then
    echo "OPERATIONS.md: flight-record phase \`$phase\` (recorded under src/) is not documented in \"The flight recorder\""
    fail=1
  fi
done <<< "$phases"

# 4. Every MessageType on the wire must be specified in PROTOCOL.md.
while IFS= read -r msg; do
  [ -z "$msg" ] && continue
  if ! grep -q "$msg" PROTOCOL.md; then
    echo "PROTOCOL.md: MessageType \`$msg\` (src/net/frame.h) is not documented"
    fail=1
  fi
done < <(sed -n '/enum class MessageType/,/};/p' src/net/frame.h \
           | grep -oE '^ *k[A-Za-z0-9]+ *=' | grep -oE 'k[A-Za-z0-9]+' \
           | sort -u)

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED (fix the paths above or update the docs)"
  exit 1
fi
echo "check_docs: OK"
