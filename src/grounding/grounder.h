#ifndef DEEPDIVE_GROUNDING_GROUNDER_H_
#define DEEPDIVE_GROUNDING_GROUNDER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "dsl/program.h"
#include "factor/factor_graph.h"
#include "grounding/grounding_options.h"
#include "storage/database.h"
#include "util/hash.h"
#include "util/status.h"

namespace deepdive::grounding {

/// The grounded model plus the tuple <-> variable correspondence ("every
/// tuple in the database is a random variable", Section 2.5).
struct GroundGraph {
  factor::FactorGraph graph;

  /// Query-relation tuple -> variable. Hash-indexed: GetOrCreateVariable is
  /// the hottest lookup in factor emission, and ordered iteration is served
  /// by `var_tuples` instead.
  std::unordered_map<std::string,
                     std::unordered_map<Tuple, factor::VarId, TupleHash>>
      var_index;

  /// VarId -> (relation, tuple); parallel to graph variables. The
  /// deterministic (creation-order) enumeration of variables.
  std::vector<std::pair<std::string, Tuple>> var_tuples;

  /// Per-relation variable ids in creation order (the projection of
  /// var_tuples onto one relation), so relation-wide enumeration is
  /// O(relation size) rather than a scan of every variable.
  std::unordered_map<std::string, std::vector<factor::VarId>> relation_vars;

  /// Retraction marks by VarId (entries past the end read false): a query
  /// tuple whose last derivation was deleted keeps its variable, since ids
  /// are append-only, but is marked here and no longer served. A later
  /// re-derivation clears the mark.
  std::vector<bool> retracted;
  bool IsRetracted(factor::VarId var) const {
    return var < retracted.size() && retracted[var];
  }

  /// Variable for a query tuple, or kNoVar.
  factor::VarId FindVariable(const std::string& relation, const Tuple& tuple) const;

  /// All variables of one query relation, in ascending VarId (creation)
  /// order, derived from `var_tuples`.
  std::vector<factor::VarId> VariablesOf(const std::string& relation) const;
};

/// Grounds a program over a database from scratch: creates one Boolean
/// variable per query-relation tuple, applies evidence relations, and
/// evaluates every factor rule into Equation-1 groups. (Internally this is
/// the incremental grounder run against an empty graph; there is exactly one
/// grounding code path.)
StatusOr<GroundGraph> GroundProgram(const dsl::Program& program, Database* db,
                                    const GroundingOptions& options = {});

}  // namespace deepdive::grounding

#endif  // DEEPDIVE_GROUNDING_GROUNDER_H_
