// Fixture: D1 must fire on each hash-container include of a message-path
// file, and only on the includes: the names in this comment
// (<unordered_map>), in a string or in a quoted include are no directive.
// Scan fodder for the lint fixture suite, not compiled.
#include <cstdint>
#include <unordered_map>
#include <vector>
#include <unordered_set>

#include "runtime/unordered_notes.hpp"

const char* kDoc = "#include <unordered_set>";
