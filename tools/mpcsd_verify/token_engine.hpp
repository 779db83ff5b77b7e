// mpcsd-verify: the token-level engine.
//
// No dependency beyond the standard library, so the conformance gate runs
// on any toolchain.  It analyzes one file at a time over the lexed token
// stream with enough structure recovered for this codebase's idioms:
// lambda introducers and capture lists are parsed, machine/stage bodies
// are identified by their context parameter types (`MachineContext&`,
// `StageContext<T>&`), declaration scanning resolves const-ness and
// unordered-container names, and every literal/comment is already out of
// the stream (the lexer dropped them), which is precisely what grep cannot
// do.
#pragma once

#include <string>
#include <string_view>

#include "diagnostics.hpp"

namespace mpcsd_verify {

/// Analyzes one file's contents.  `path` is used for scope policy; it is
/// normalized internally.  Never throws on malformed input.
[[nodiscard]] Diagnostics analyze_file_tokens(std::string_view path,
                                              std::string_view source);

}  // namespace mpcsd_verify
