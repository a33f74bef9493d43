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
 * unquoted identifiers are single-quoted; variables print their source
 * name when one exists, otherwise "_Gn".
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

    /**
     * True when TermReader reads writeClause(@p clause) back as
     * @p clause, variable numbering aside (ClauseTable::addAsRead
     * numbers them as the reader does).  False for what the text
     * cannot carry: an anonymous variable, a variable name that is
     * not a variable token, a float "%g" rounds, the most negative
     * integer, a list with a non-variable tail, or a head or goal of
     * an operator the clause syntax would regroup.
     */
    bool readsBack(const ClauseView &clause) const;

  private:
    const SymbolTable &symbols_;

    void writeTerm(const TermArena &arena, TermRef t,
                   std::string &out) const;
    void writeAtomText(const std::string &name, std::string &out) const;
    int termPrecedence(const TermArena &arena, TermRef t) const;
    bool termReadsBack(const TermArena &arena, TermRef t) const;
    void writeOperand(const TermArena &arena, TermRef t, int max_prec,
                      bool infix_context, std::string &out) const;
};

} // namespace clare::term

#endif // CLARE_TERM_TERM_WRITER_HH
