#!/bin/sh
# Fails when the effect-handler fiber creeps back into the program.
#
# Every process the library, the CLI, the bench and the examples create is
# a step process (Engine.spawn_callbacks). The fiber (Engine.spawn,
# Engine.handover and the effects behind them) remains only in
# lib/engine/engine.ml and in the two fiber entry points of
# lib/comm/collective.ml (allreduce_sum and host_allreduce_sum), which the
# benchmark's fiber allreduce harness calls. Inside engine.ml the fiber is
# a layer over step processes: one match_with (a fiber's first step) and
# one Effect.perform (a handover that parks), so the handler cannot spread
# back into the core. Run from the repository root.
hits=$(grep -rnE --include='*.ml' 'Engine\.spawn([^_[:alnum:]]|$)|Engine\.handover|Effect\.' \
  lib bin bench examples | grep -v '^lib/engine/engine\.ml:')
entry='^lib/comm/collective\.ml:[0-9]+: +Cpufree_engine\.Engine\.handover '
rest=$(printf '%s\n' "$hits" | grep -vE "$entry")
entries=$(printf '%s\n' "$hits" | grep -cE "$entry")
if [ -n "$rest" ] || [ "$entries" -gt 2 ]; then
  echo "fiber guard: a fiber primitive is used outside engine.ml and the two" >&2
  echo "Collective fiber entry points:" >&2
  printf '%s\n' "$hits" >&2
  exit 1
fi
engine=lib/engine/engine.ml
for prim in match_with Effect.perform; do
  n=$(grep -oF "$prim" "$engine" | wc -l)
  if [ "$n" -gt 1 ]; then
    echo "fiber guard: $engine has $n uses of $prim; the fiber layer has one:" >&2
    grep -nF "$prim" "$engine" >&2
    exit 1
  fi
done
