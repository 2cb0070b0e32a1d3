#!/bin/sh
# Fails when a lib/dace pass walks statement bodies by hand again.
#
# Sdfg.walk visits every statement with its nested S_cond and S_role
# bodies, Sdfg.map_bodies rewrites every statement list, and Sdfg.operands
# lists what each statement names. Only the lowering in exec.ml and the
# emission in codegen.ml, which do different work per constructor, may
# take a body apart themselves. Elsewhere a pattern that binds a body (a
# punned then_ or body field, a field bound to a name beside a wildcard, or
# the whole inline record bound to a name) is a recursion of its own. Run
# from the repository root.
hits=$(find lib/dace -name '*.ml' ! -name sdfg.ml ! -name exec.ml ! -name codegen.ml \
  -exec grep -nHE \
  -e 'then_[[:space:]]*[;}]' \
  -e 'S_role[[:space:]]*\{[^}]*body[[:space:]]*[;}]' \
  -e '(then_|body)[[:space:]]*=[[:space:]]*[a-z_][[:alnum:]_]*[[:space:]]*;[[:space:]]*_[[:space:]]*}' \
  -e 'S_(cond|role)[[:space:]]+[a-z][[:alnum:]_]*' \
  {} + | sort -t: -k1,1 -k2,2n)
if [ -n "$hits" ]; then
  echo "sdfg walk guard: a lib/dace pass recurses into S_cond/S_role bodies" >&2
  echo "outside Sdfg.walk and Sdfg.map_bodies:" >&2
  printf '%s\n' "$hits" >&2
  exit 1
fi
