#!/bin/sh
# Fails when a step program's timed wait hides in a closure again.
#
# The stencil variants and the DaCe executor lower every rank and role to a
# Cpufree_engine.Program, whose timed waits are typed: After for a wait of a
# cost, Compute for a device-compute share (the wait, the body and its
# logged interval). A call to Engine.after or Engine.log_compute written in
# lib/stencil or lib/dace would be such a wait inside a Wait or Do closure,
# where a pass over the lowered program cannot see it. Run from the
# repository root.
hits=$(grep -rnE --include='*.ml' 'Engine\.(after|log_compute)([^_[:alnum:]]|$)' \
  lib/stencil lib/dace)
if [ -n "$hits" ]; then
  echo "program guard: a timed wait in lib/stencil or lib/dace is not a" >&2
  echo "Program.After or Program.Compute:" >&2
  printf '%s\n' "$hits" >&2
  exit 1
fi
