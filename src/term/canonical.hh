/**
 * @file
 * Canonical term keys and hashes for the goal cache.
 *
 * Two goals retrieve the same clauses whenever they are identical up
 * to a consistent renaming of their variables: p(X, Y) and p(A, B)
 * produce the same candidate and answer ordinals, while p(X, X)
 * (shared variable) does not.  The canonical key captures exactly
 * that equivalence: variables are numbered densely by first
 * occurrence, anonymous variables are always fresh (they can never be
 * shared), and every other node contributes its kind plus stable ids.
 *
 * canonicalKey() is an exact, collision-free byte string — the cache
 * key.  canonicalHash() is a 64-bit FNV-1a of the key for callers
 * that only need a fingerprint.
 */

#ifndef CLARE_TERM_CANONICAL_HH
#define CLARE_TERM_CANONICAL_HH

#include <cstdint>
#include <string>

#include "term/term.hh"

namespace clare::term {

/**
 * Exact renaming-invariant key of @p t.  Terms of possibly different
 * arenas have equal keys iff they are structurally equal up to a
 * consistent renaming of named variables.
 */
std::string canonicalKey(const TermArena &arena, TermRef t);

/** 64-bit FNV-1a hash of canonicalKey(). */
std::uint64_t canonicalHash(const TermArena &arena, TermRef t);

} // namespace clare::term

#endif // CLARE_TERM_CANONICAL_HH
