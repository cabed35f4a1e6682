/**
 * @file
 * A compiled KL1 module: instruction stream, procedure table, symbols.
 */

#ifndef PIMCACHE_KL1_MODULE_H_
#define PIMCACHE_KL1_MODULE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "kl1/kl1b.h"
#include "kl1/symtab.h"

namespace pim::kl1 {

/** One compiled procedure. */
struct ProcInfo {
    std::string name;
    std::uint32_t arity = 0;
    std::uint32_t entryPc = 0; ///< Index into Module::code.
};

/** Compiled program image. */
class Module
{
  public:
    std::vector<Instr> code;
    std::vector<ProcInfo> procs;
    std::map<std::string, std::uint32_t> procIndex; ///< "name/arity" -> id.
    SymbolTable symbols;

    /** Compute word offsets of each instruction in the instruction area. */
    void finalize();

    /** Instruction-area word offset of instruction @p pc. */
    std::uint32_t
    wordOffset(std::uint32_t pc) const
    {
        return wordOffsets_[pc];
    }

    /** Total code size in instruction-area words. */
    std::uint32_t totalWords() const { return totalWords_; }

    /** Look up a procedure id; SimFault(Parse) when undefined. */
    std::uint32_t procId(const std::string& name,
                         std::uint32_t arity) const;

    /** Render a one-line disassembly of instruction @p pc. */
    std::string disassemble(std::uint32_t pc) const;

    /** Render the whole module's disassembly. */
    std::string disassembleAll() const;

  private:
    std::vector<std::uint32_t> wordOffsets_;
    std::uint32_t totalWords_ = 0;
};

} // namespace pim::kl1

#endif // PIMCACHE_KL1_MODULE_H_
