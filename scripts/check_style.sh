#!/usr/bin/env bash
# Style gate for OCaml sources and build files, used by the CI lint job
# alongside `dune build @fmt` (which covers dune-file formatting).
# Deterministic and dependency-free so it gives the same verdict on any
# machine.
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0
complain() {
  echo "style: $1: $2" >&2
  fail=1
}

# tracked sources only — _build and vendored artifacts are not ours
files=$(git ls-files '*.ml' '*.mli' 'dune' '*/dune' 'dune-project')

for f in $files; do
  [ -f "$f" ] || continue

  if LC_ALL=C grep -q -P '\t' "$f"; then
    complain "$f" "tab character (sources are space-indented)"
  fi

  if LC_ALL=C grep -q -E ' +$' "$f"; then
    complain "$f" "trailing whitespace"
  fi

  if [ -s "$f" ] && [ "$(tail -c 1 "$f" | wc -l)" -eq 0 ]; then
    complain "$f" "missing final newline"
  fi

  if LC_ALL=C grep -q $'\r' "$f"; then
    complain "$f" "carriage return (CRLF line ending)"
  fi
done

# Hot-path lint.  These modules run per segment (or per event), where
# every polymorphic comparison is a C call into compare_val: reject bare
# or Stdlib [max]/[min] (use Int.*/Float.*), [List.mem]/[List.assoc]
# (write a monomorphic loop) and the polymorphic [Hashtbl] accessors
# (use a Hashtbl.Make instance with a monomorphic [equal]).  Comments,
# string and char literals are blanked first, keeping line numbers, so
# only code counts.  [compare] is not flagged: on int-typed arguments
# ocamlopt already specialises it.
hot_path="
lib/util/bytebuf.ml
lib/util/interval_buf.ml
lib/sim/engine.ml
lib/sim/cpu.ml
lib/tcp/tcb.ml
lib/tcp/rto.ml
lib/tcp/stack.ml
lib/core/primary_bridge.ml
lib/core/secondary_bridge.ml
lib/core/failover_config.ml
lib/ip/arp_cache.ml
lib/ip/eth_iface.ml
lib/ip/ip_layer.ml
lib/net/medium.ml
lib/net/link.ml
lib/net/nic.ml
lib/packet/eth_frame.ml
lib/packet/ipv4_packet.ml
lib/packet/tcp_segment.ml
lib/dispatch/dispatch.ml
lib/host/host.ml
lib/statex/codec.ml
lib/obs/registry.ml
"

hot_hits=$(for f in $hot_path; do
  [ -f "$f" ] || { echo "$f: missing hot-path module"; continue; }
  perl -0777 -ne '
    my $f = $ARGV; my $src = $_; my $out = ""; my $depth = 0;
    my $blank = sub { (my $x = shift) =~ s/[^\n]/ /g; $x };
    my $chr = qr{\x27(?:\\(?:[\\\x27"ntbr ]|\d{3}|x[0-9a-fA-F]{2}|o[0-7]{3})|[^\\\x27\n])\x27};
    pos($src) = 0;
    while (pos($src) < length $src) {
      if ($src =~ /\G\(\*/gc) { $depth++; $out .= "  " }
      elsif ($depth > 0 && $src =~ /\G\*\)/gc) { $depth--; $out .= "  " }
      elsif ($src =~ /\G("(?:[^"\\]|\\.)*")/gcs) { $out .= $blank->($1) }
      elsif ($src =~ /\G($chr)/gc) { $out .= $blank->($1) }
      elsif ($depth == 0 && $src =~ /\G([A-Za-z_][\w\x27]*)/gc) { $out .= $1 }
      elsif ($src =~ /\G(.)/gcs) { $out .= $depth > 0 ? $blank->($1) : $1 }
    }
    my $n = 0;
    for my $line (split /\n/, $out, -1) {
      $n++;
      while ($line =~ /(?<![\w.~?\x27])(max|min)(?![\w\x27])
                      |\bStdlib\.(?:max|min)\b
                      |\bList\.(?:mem|assoc|mem_assoc|assoc_opt)\b
                      |(?<![\w.])Hashtbl\.(?:find|find_opt|find_all|replace|mem|add|remove)\b/xg) {
        print "$f:$n: $&\n";
      }
    }
  ' "$f"
done)
if [ -n "$hot_hits" ]; then
  printf '%s\n' "$hot_hits" | while IFS= read -r h; do
    complain "${h%%: *}" "polymorphic compare on the hot path: ${h##*: }"
  done
  fail=1
fi

# Unused-export lint.  Every [val NAME] in a library interface must be
# named, as a word, in some tracked .ml/.mli outside that module's own
# .ml/.mli pair (any library, test, bench, binary or example counts,
# comments included).  The rule is conservative: a common name such as
# [create] never fires; it catches exports nothing outside the module
# can be calling.
unused=$(perl -e '
  my @files = grep { -f } @ARGV;
  my %seen;
  for my $f (@files) {
    open my $fh, "<", $f or die "$f: $!";
    local $/; my $src = <$fh>; close $fh;
    (my $stem = $f) =~ s/\.mli?$//;
    $seen{$1}{$stem} = 1 while $src =~ /([A-Za-z_][\w\x27]*)/g;
  }
  for my $f (grep { m{^lib/.*\.mli$} } @files) {
    open my $fh, "<", $f or die "$f: $!";
    local $/; my $src = <$fh>; close $fh;
    (my $stem = $f) =~ s/\.mli$//;
    while ($src =~ /^\s*val\s+([a-z_][\w\x27]*)/mg) {
      my $name = $1;
      print "$f: $name\n" unless grep { $_ ne $stem } keys %{ $seen{$name} };
    }
  }
' $(git ls-files '*.ml' '*.mli'))
if [ -n "$unused" ]; then
  printf '%s\n' "$unused" | while IFS= read -r u; do
    complain "${u%%: *}" "export named nowhere outside its module: ${u##*: }"
  done
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "style: FAILED" >&2
  exit 1
fi
echo "style: OK ($(echo "$files" | wc -l) files)"
