#ifndef PRIVATECLEAN_TOOLS_PCLEAN_CLI_H_
#define PRIVATECLEAN_TOOLS_PCLEAN_CLI_H_

#include <ostream>
#include <string>
#include <vector>

namespace privateclean {

/// The `pclean` command-line tool, as a testable function: `args` are
/// the arguments after the program name; normal output goes to `out`,
/// diagnostics to `err`; the return value is the process exit code.
///
/// Subcommands:
///
///   pclean privatize --input data.csv --output release_dir
///          (--epsilon E | --p P --b B | --count-error TARGET)
///          [--seed N]
///       Reads a CSV (schema inferred: numeric columns become numerical
///       attributes, the rest discrete), privatizes it with GRR, and
///       writes a release directory.
///
///   pclean info --release release_dir
///       Prints the release's size, schema, per-attribute and total ε.
///
///   pclean verify <release_dir>
///       Checks every file of the release against its MANIFEST (byte
///       length and CRC32C), decodes the verified bytes, and reports
///       per-file results. Exits non-zero on corruption, a missing
///       release, or a format version this build cannot read.
///
///   pclean export --release release_dir --output data.csv
///       Writes the private relation as CSV (NULL rendered as \N).
///
///   pclean query --release release_dir --sql "SELECT ..."
///          [--direct] [--confidence C] [--replace attr:from=to]...
///       Opens a release, optionally applies find-and-replace cleaning
///       rules, and runs the query with the PrivateClean estimator
///       (or the Direct baseline with --direct).
int RunPcleanCli(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err);

}  // namespace privateclean

#endif  // PRIVATECLEAN_TOOLS_PCLEAN_CLI_H_
