/**
 * @file
 * Filesystem helpers for the simulator's output documents.
 *
 * The JSON documents the tools publish (SWEEP.json, CAMPAIGN.json, the
 * attribution document) are written via writeFileAtomic: the content
 * lands in a same-directory temp file first and is renamed over the
 * destination, so a killed process leaves either the old complete file
 * or the new complete file — never a torn half-document
 * (docs/ROBUSTNESS.md "Atomic publication").
 */

#ifndef PIMCACHE_COMMON_FS_UTIL_H_
#define PIMCACHE_COMMON_FS_UTIL_H_

#include <string>

namespace pim {

/**
 * Write @p content to @p path atomically: parent directories are
 * created as needed (like `mkdir -p`), the bytes go to a temp file in
 * the same directory (same filesystem, so the rename cannot cross a
 * mount), and std::filesystem::rename publishes the result. On any
 * failure the temp file is removed and the destination is untouched.
 *
 * @param error When non-null, receives a one-line description on
 *              failure ("" on success).
 * @return true when @p path now holds exactly @p content.
 */
bool writeFileAtomic(const std::string& path, const std::string& content,
                     std::string* error = nullptr);

} // namespace pim

#endif // PIMCACHE_COMMON_FS_UTIL_H_
