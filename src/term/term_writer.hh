/**
 * @file
 * Canonical text rendering of terms and clauses (Edinburgh syntax).
 */

#ifndef CLARE_TERM_TERM_WRITER_HH
#define CLARE_TERM_TERM_WRITER_HH

#include <string>

#include "term/symbol_table.hh"
#include "term/term.hh"

namespace clare::term {

class Clause;
struct ClauseView;

/**
 * Renders terms against a symbol table.  Atoms that are not valid
 * unquoted identifiers are single-quoted, a variable prints its name
 * and an anonymous one '_', and a float prints the shortest digits
 * that read back as it.  TermReader reads the text of a clause in its
 * stored form (term::storedClause) back as that clause, node for node.
 */
class TermWriter
{
  public:
    explicit TermWriter(const SymbolTable &symbols) : symbols_(symbols) {}

    /** Render one term. */
    std::string write(const TermArena &arena, TermRef t) const;

    /** Render a clause, "head." or "head :- g1, g2.". */
    std::string writeClause(const ClauseView &clause) const;
    std::string writeClause(const Clause &clause) const;

    /** writeClause() appended to @p out. */
    void appendClause(const ClauseView &clause, std::string &out) const;

  private:
    const SymbolTable &symbols_;

    void writeTerm(const TermArena &arena, TermRef t,
                   std::string &out) const;
    void writeAtomText(const std::string &name, std::string &out) const;
    int termPrecedence(const TermArena &arena, TermRef t) const;
    void writeOperand(const TermArena &arena, TermRef t, int max_prec,
                      bool infix_context, std::string &out) const;
};

} // namespace clare::term

#endif // CLARE_TERM_TERM_WRITER_HH
